(* vsbench: the repository benchmark.

     vsbench.exe --workload W --seed N --seconds S --trace 0|1
     vsbench.exe --selftest

   Runs one workload for S seconds of measurement, checks its outputs,
   and prints one JSON object as the last line of standard output:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. Progress and diagnostics go to standard error. See
   README.md for the workloads, the metrics and what each should move. *)

open Util

let workloads =
  [
    ("mcast_n32", fun ~seed ~seconds ~traced -> Mcast.workload Mcast.n32 ~seed ~seconds ~traced);
    ("mcast_checked", fun ~seed ~seconds ~traced -> Mcast.workload Mcast.checked ~seed ~seconds ~traced);
    ("kv_tcp", Kv_tcp.workload);
    ("kv_rejoin", Kv_rejoin.workload);
  ]

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   workload that does not run a layer reports it as 0. *)
let per_layer =
  let monitors = List.map (fun (mon : Vsgc_ioa.Monitor.t) -> mon.Vsgc_ioa.Monitor.name) (Vsgc_spec.All.safety ()) in
  let invariants = List.map fst Vsgc_checker.Invariants.all in
  [
    ("ioa.sched_us_per_step", "us");
    ("ioa.apply_us_per_step", "us");
    ("ioa.steps_per_delivery", "count");
    ("ioa.cand_hit_ratio", "ratio");
    ("ioa.cand_lookups", "count");
    ("corfifo.apply_us_per_step", "us");
    ("corfifo.msgs_per_delivery", "count");
    ("corfifo.bytes_per_delivery", "B");
    ("core.apply_us_per_step", "us");
    ("spec.us_per_step", "us");
  ]
  @ List.map (fun n -> ("spec." ^ n ^ ".us_per_step", "us")) monitors
  @ [ ("harness.snapshot_us_per_step", "us"); ("checker.us_per_step", "us") ]
  @ List.map (fun n -> ("checker." ^ n ^ ".us_per_step", "us")) invariants
  @ [
      ("checker.growth", "ratio");
      ("gc.minor_words_per_step", "words");
      ("gc.minor_words_per_write", "words");
      ("gc.major_collections", "count");
      ("wire.send_us_per_write", "us");
      ("wire.recv_us_per_write", "us");
      ("load.late_us_p99", "us");
      ("kv.server_cpu_us_per_write", "us");
      ("mbrshp.server_cpu_us_per_write", "us");
      ("kv.server_wakeups_per_write", "count");
      ("kv.server_rss_kb_per_kwrite", "kB");
      ("kv.round_us", "us");
      ("kv.exec_us_per_round", "us");
      ("kv.edge_us_per_round", "us");
      ("kv.apply_rounds_per_write", "count");
      ("net.packets_per_write", "count");
      ("net.bytes_per_write", "B");
      ("kv.restart_us", "us");
      ("kv.rejoin_rounds", "count");
      ("kv.rejoin_bytes", "B");
      ("kv.rejoin_ms", "ms");
      ("host.ref_us", "us");
    ]

(* A value that is not a number has already made the run incorrect;
   print it as 0 so the line stays valid JSON. *)
let json_number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_json (r : result) metrics =
  let body =
    List.map
      (fun mt -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number mt.value) mt.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" r.correct
    r.attempted r.failed (String.concat ", " body)

let run_workload name ~seed ~seconds ~traced =
  match List.assoc_opt name workloads with
  | None ->
      log "unknown workload %s (have: %s)" name (String.concat ", " (List.map fst workloads));
      exit 2
  | Some w ->
      let before = host_ref_samples () in
      let r = w ~seed ~seconds ~traced in
      let host = median (before @ host_ref_samples ()) in
      List.iter (fun s -> log "check failed: %s" s) r.notes;
      let bad = List.filter (fun mt -> not (Float.is_finite mt.value)) (r.e2e @ r.layers) in
      List.iter (fun mt -> log "metric %s is not a number" mt.name) bad;
      let r = { r with correct = r.correct && bad = [] } in
      let metrics =
        if not traced then r.e2e
        else
          let layers = Util.m "host.ref_us" "us" host :: r.layers in
          List.map
            (fun (name, unit) ->
              match List.find_opt (fun mt -> mt.name = name) layers with
              | Some mt -> mt
              | None -> Util.m name unit 0.)
            per_layer
      in
      List.iter (fun mt -> log "%s = %s %s" mt.name (json_number mt.value) mt.unit) (if traced then r.e2e else []);
      print_json r metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S seconds of measurement");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--selftest", Arg.Set selftest, " check that every check fails on a planted fault");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "vsbench.exe --workload W --seed N --seconds S --trace 0|1 | --selftest";
  if !selftest then exit (Selftest.run ())
  else begin
    Vsgc_ioa.Executor.set_default_mode `Cached;
    Vsgc_ioa.Executor.set_default_sanitize None;
    Vsgc_ioa.Executor.set_default_jobs 1;
    run_workload !workload ~seed:!seed ~seconds:(float_of_int !seconds) ~traced:(!trace = 1)
  end
