(* kv_rejoin: the loopback KV deployment (3 batched KV replicas, 2
   membership servers) under a write stream, with one replica crashed
   and restarted again and again. Each restart goes through the real
   membership servers' view change, the state transfer and the store
   refold; the workload waits until the reborn store matches the
   survivors' before the next crash. Virtual time keeps every run
   replayable from its seed; wall-clock time is what is measured.

   The load is the benchmark's own: one load identity on the hub,
   homed at replica 0 (never crashed), writing random keys of a
   preloaded store. *)

open Vsgc_types
open Util
module Kv_system = Vsgc_kv.Kv_system
module Kv_node = Vsgc_kv.Kv_node
module Kv_store = Vsgc_kv.Kv_store
module Loopback = Vsgc_net.Loopback
module Transport = Vsgc_net.Transport
module Node_id = Vsgc_wire.Node_id
module Packet = Vsgc_wire.Packet
module Kv_msg = Vsgc_wire.Kv_msg
module Executor = Vsgc_ioa.Executor

let keys = 2000  (* store size, preloaded during set-up *)
let writes_per_round = 2  (* while writes flow *)
let preload_per_round = 50
let down_rounds = 20  (* rounds a victim stays crashed *)
let client = 100
let home = 0
let setup_reps = 7
let cycles_per_epoch = 24

type load = {
  tr : Transport.t;
  rng : Random.State.t;
  seed : int;
  mutable next_seq : int;
  mutable key_of : int array;  (* seq -> key index *)
  sent_at : (int, int64) Hashtbl.t;  (* outstanding seq -> send time *)
  mutable acked : int;
  latency : Samples.t;  (* us, send -> ack *)
  mutable dups : int;
}

let key = Kv_check.key
let value = Kv_check.value

let send ld k =
  let seq = ld.next_seq in
  ld.next_seq <- seq + 1;
  if seq >= Array.length ld.key_of then begin
    let a = Array.make (2 * Array.length ld.key_of) 0 in
    Array.blit ld.key_of 0 a 0 (Array.length ld.key_of);
    ld.key_of <- a
  end;
  ld.key_of.(seq) <- k;
  Hashtbl.replace ld.sent_at seq (now_ns ());
  Transport.send ld.tr (Node_id.Client home)
    (Packet.Kv_req (Kv_msg.Put { client; seq; key = key k; value = value ld.seed seq }))

let receive ld ~timed =
  List.iter
    (function
      | Transport.Received (_, Packet.Kv_resp (Kv_msg.Put_ack { client = c; seq })) when c = client -> (
          match Hashtbl.find_opt ld.sent_at seq with
          | Some t0 ->
              Hashtbl.remove ld.sent_at seq;
              ld.acked <- ld.acked + 1;
              if timed then Samples.add ld.latency (us_since t0)
          | None -> ld.dups <- ld.dups + 1)
      | _ -> ())
    (Transport.recv ld.tr)

type sys = { t : Kv_system.t; ld : load }

(* One drive round with [w] new writes. *)
let round s ~w ~timed =
  receive s.ld ~timed;
  for _ = 1 to w do
    send s.ld (Random.State.int s.ld.rng keys)
  done;
  Kv_system.round s.t

let drive_until s ~what ~budget ~w cond =
  let r = ref 0 in
  while not (cond ()) do
    if !r >= budget then failwith ("kv_rejoin: no " ^ what ^ " within the round budget");
    round s ~w ~timed:false;
    incr r
  done

let setup ~seed =
  let t = Kv_system.create ~seed ~batch:true ~n:3 ~n_servers:2 () in
  Kv_system.warmup t;
  let tr = Loopback.attach (Kv_system.hub t) (Node_id.Kv_client client) in
  Transport.connect tr (Node_id.Client home);
  let ld =
    {
      tr;
      rng = Random.State.make [| seed; 7 |];
      seed;
      next_seq = 0;
      key_of = Array.make 4096 0;
      sent_at = Hashtbl.create 1024;
      acked = 0;
      latency = Samples.create ();
      dups = 0;
    }
  in
  let s = { t; ld } in
  (* the link is up once the hub has ticked; then every key once,
     [preload_per_round] writes a round *)
  Kv_system.round t;
  let r = ref 0 in
  while not (ld.acked = keys && Kv_system.quiescent t) do
    if !r >= 100_000 then failwith "kv_rejoin: no preload within the round budget";
    for k = !r * preload_per_round to min keys ((!r + 1) * preload_per_round) - 1 do
      send ld k
    done;
    round s ~w:0 ~timed:false;
    incr r
  done;
  s

let store s p = Kv_node.store (Kv_system.kv_node s.t p)

(* The store the acked writes must have produced; the preload wrote
   every key, so every key has a value. *)
let fold_digest s =
  let fold = Array.make keys "" in
  for seq = 0 to s.ld.next_seq - 1 do
    if not (Hashtbl.mem s.ld.sent_at seq) then fold.(s.ld.key_of.(seq)) <- value s.ld.seed seq
  done;
  Kv_check.digest fold

let in_full_view s victim =
  Proc.Set.equal
    (View.set (Kv_node.current_view (Kv_system.kv_node s.t victim)))
    (Proc.Set.of_list (Kv_system.procs s.t))

(* Settled: every write acked and the deployment idle, so every
   replica has applied the same prefix. Store versions cannot tell:
   a reborn store's version restarts from the transferred snapshot's. *)
let settled s = Hashtbl.length s.ld.sent_at = 0 && Kv_system.quiescent s.t

type kv_trace = {
  exec_start : int64 array;  (* per node: first choice this round, 0 = none *)
  exec_end : int64 array;
  mutable exec_us : float;
}

let attach_trace s =
  let n = List.length (Kv_system.procs s.t) in
  let kt = { exec_start = Array.make n 0L; exec_end = Array.make n 0L; exec_us = 0. } in
  List.iter
    (fun p ->
      let ex = Kv_node.executor (Kv_system.kv_node s.t p) in
      Executor.add_choice_hook ex (fun _ _ ->
          if kt.exec_start.(p) = 0L then kt.exec_start.(p) <- now_ns ());
      Executor.add_step_hook ex (fun _ -> kt.exec_end.(p) <- now_ns ()))
    (Kv_system.procs s.t);
  kt

let close_round kt =
  Array.iteri
    (fun p t0 ->
      if t0 <> 0L then begin
        kt.exec_us <- kt.exec_us +. us_between t0 kt.exec_end.(p);
        kt.exec_start.(p) <- 0L
      end)
    kt.exec_start

(* Counters summed over a run's deployments. *)
type totals = {
  mutable elapsed : float;  (* s, cycles only *)
  mutable segments : segment list;
  mutable writes : int;
  mutable acked : int;
  mutable failed : int;
  mutable rounds : int;
  mutable round_us : float;
  mutable exec_us : float;
  mutable apply_rounds : int;
  mutable packets : int;
  mutable bytes : int;
  mutable minor_words : float;
  mutable majors : int;
  mutable restarts : float list;  (* us *)
  mutable rejoins : float list;  (* ms *)
  mutable rejoin_rounds : int;
  mutable rejoin_bytes : int;
  mutable problems : string list;
}

(* One deployment's share of a run: [cycles_per_epoch] crash-restart
   cycles, then a drain and the store checks (not timed). *)
let epoch tt ~seed ~traced =
  let s = setup ~seed in
  let kt = if traced then Some (attach_trace s) else None in
  let hub = Kv_system.hub s.t in
  let problem fmt = Printf.ksprintf (fun m -> tt.problems <- m :: tt.problems) fmt in
  let acked0 = s.ld.acked and seq0 = s.ld.next_seq in
  let pk0 = Loopback.delivered hub and by0 = Loopback.delivered_bytes hub in
  let ar0 = Kv_system.apply_rounds s.t in
  let gc0 = Gc.quick_stat () in
  let cpu0 = self_cpu_s () and t0 = now_ns () in
  let timed_round ~w =
    let t = now_ns () in
    round s ~w ~timed:true;
    tt.round_us <- tt.round_us +. us_since t;
    tt.rounds <- tt.rounds + 1;
    match kt with Some kt -> close_round kt | None -> ()
  in
  for cycle = 1 to cycles_per_epoch do
    let victim = 1 + (cycle mod 2) in
    Kv_system.crash s.t victim;
    for _ = 1 to down_rounds do
      timed_round ~w:writes_per_round
    done;
    let tr0 = now_ns () and b0 = Loopback.delivered_bytes hub in
    Kv_system.restart s.t victim;
    tt.restarts <- us_since tr0 :: tt.restarts;
    let r = ref 0 in
    (* writes flow until the victim is back in the full view, then the
       deployment settles and the stores are compared once *)
    while not (in_full_view s victim) do
      if !r > 100_000 then failwith "kv_rejoin: the reborn replica never rejoined";
      timed_round ~w:writes_per_round;
      incr r
    done;
    while not (settled s) do
      if !r > 200_000 then failwith "kv_rejoin: no quiescence after the rejoin";
      timed_round ~w:0;
      incr r
    done;
    (match Kv_system.digests s.t with
    | (_, d0) :: rest when List.for_all (fun (_, d) -> String.equal d d0) rest -> ()
    | _ -> problem "cycle %d: reborn p%d's store differs from the survivors'" cycle victim);
    tt.rejoins <- (us_since tr0 /. 1e3) :: tt.rejoins;
    tt.rejoin_rounds <- tt.rejoin_rounds + !r;
    tt.rejoin_bytes <- tt.rejoin_bytes + (Loopback.delivered_bytes hub - b0)
  done;
  let secs = s_since t0 and cpu_s = self_cpu_s () -. cpu0 in
  tt.elapsed <- tt.elapsed +. secs;
  let gc1 = Gc.quick_stat () in
  tt.minor_words <- tt.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  tt.majors <- tt.majors + (gc1.Gc.major_collections - gc0.Gc.major_collections);
  tt.writes <- tt.writes + (s.ld.next_seq - seq0);
  tt.acked <- tt.acked + (s.ld.acked - acked0);
  tt.segments <- segment ~secs ~ops:(s.ld.acked - acked0) ~cpu_s s.ld.latency :: tt.segments;
  tt.apply_rounds <- tt.apply_rounds + (Kv_system.apply_rounds s.t - ar0);
  tt.packets <- tt.packets + (Loopback.delivered hub - pk0);
  tt.bytes <- tt.bytes + (Loopback.delivered_bytes hub - by0);
  (match kt with Some kt -> tt.exec_us <- tt.exec_us +. kt.exec_us | None -> ());
  (* the checks: every write acked and applied at its never-crashed
     home, every store equal to the fold *)
  (try drive_until s ~what:"drain" ~budget:100_000 ~w:0 (fun () -> settled s)
   with Failure m -> problem "%s" m);
  List.iter
    (fun (p, _) -> problem "p%d's final store differs from the fold of the acked writes" p)
    (Kv_check.mismatched ~expected:(fold_digest s) (Kv_system.digests s.t));
  let home_store = store s home in
  let failed = ref (Hashtbl.length s.ld.sent_at) in
  for seq = seq0 to s.ld.next_seq - 1 do
    if (not (Hashtbl.mem s.ld.sent_at seq)) && not (Kv_store.applied home_store ~client ~seq) then incr failed
  done;
  if !failed > 0 then problem "%d of %d writes unacked or missing" !failed (s.ld.next_seq - seq0);
  if s.ld.dups > 0 then problem "%d duplicate acks" s.ld.dups;
  tt.failed <- tt.failed + !failed

(* Whole deployments, each with the same fixed work, until the
   measurement time is spent: the rejoin cost grows with a deployment's
   history, so a fixed unit keeps the work the same in every run however
   fast the host is. Building the next deployment is not timed. *)
let workload ~seed ~seconds ~traced =
  let setups =
    List.init setup_reps (fun i ->
        let t0 = now_ns () in
        ignore (setup ~seed:(seed + (1000 * i)));
        s_since t0)
  in
  let tt =
    {
      elapsed = 0.;
      segments = [];
      writes = 0;
      acked = 0;
      failed = 0;
      rounds = 0;
      round_us = 0.;
      exec_us = 0.;
      apply_rounds = 0;
      packets = 0;
      bytes = 0;
      minor_words = 0.;
      majors = 0;
      restarts = [];
      rejoins = [];
      rejoin_rounds = 0;
      rejoin_bytes = 0;
      problems = [];
    }
  in
  let e = ref 0 in
  while tt.elapsed < seconds do
    epoch tt ~seed:(seed + (7919 * (!e + 1))) ~traced;
    incr e
  done;
  let w = fi tt.writes in
  let e2e = e2e_metrics ~setup_s:(median setups) ~peak_rss_mb:(self_hwm_mb ()) tt.segments in
  let n_rejoins = fi (List.length tt.rejoins) in
  let layers =
    if not traced then []
    else
      let per_round x = ratio x (fi tt.rounds) in
      [
        Util.m "kv.round_us" "us" (per_round tt.round_us);
        Util.m "kv.exec_us_per_round" "us" (per_round tt.exec_us);
        Util.m "kv.edge_us_per_round" "us" (per_round (tt.round_us -. tt.exec_us));
        Util.m "kv.apply_rounds_per_write" "count" (ratio (fi tt.apply_rounds) w);
        Util.m "net.packets_per_write" "count" (ratio (fi tt.packets) w);
        Util.m "net.bytes_per_write" "B" (ratio (fi tt.bytes) w);
        Util.m "kv.restart_us" "us" (median tt.restarts);
        Util.m "kv.rejoin_rounds" "count" (ratio (fi tt.rejoin_rounds) n_rejoins);
        Util.m "kv.rejoin_bytes" "B" (ratio (fi tt.rejoin_bytes) n_rejoins);
        Util.m "kv.rejoin_ms" "ms" (median tt.rejoins);
        Util.m "gc.minor_words_per_write" "words" (ratio tt.minor_words w);
        Util.m "gc.major_collections" "count" (fi tt.majors);
      ]
  in
  let notes = List.rev tt.problems in
  { correct = notes = []; attempted = tt.writes; failed = tt.failed; e2e; layers; notes }
