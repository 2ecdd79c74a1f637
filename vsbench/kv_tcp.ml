(* kv_tcp: the deployed path, timed in wall-clock. Five real processes
   on 127.0.0.1 — 2 x [vsgc_node server] and 3 x [vsgc_node kv-server
   --batch] — and this process as the only source of load: one load
   identity with one connection to kv-server p1, sending open-loop
   writes at a fixed rate over a preloaded store.

   Each write is timed from the moment it was due, not from when it was
   sent, so a stalled generator cannot hide latency. The load waits in
   the transport's own [select] for at most [load_poll], so it wakes as
   soon as an ack arrives and sends close to each due time.
   Arrivals are Poisson, the seed drawing the gaps and the keys. The servers are black boxes: CPU, wakeups and memory come
   from /proc/<pid>, the store from their STORE lines. *)

open Util
module Tcp = Vsgc_net.Tcp
module Transport = Vsgc_net.Transport
module Node_id = Vsgc_wire.Node_id
module Packet = Vsgc_wire.Packet
module Kv_msg = Vsgc_wire.Kv_msg

(* Every kv-server loop iteration digests the whole store, and a write's
   path runs through several of them, so the store size sets how much
   CPU sits on the latency path. At 2000 keys and 250 writes/s the
   servers used 0.65 of this 2-vCPU host and one busy process beside
   them raised p50 by 42 %: the latency measured the host. At 200 keys
   and 500 writes/s they use about a quarter of a core and the same
   busy process moves p50 by about 5 %. *)
let rate = 500.  (* writes per second *)
let keys = 200  (* store size, preloaded during set-up *)
let client = 0
let home = 1  (* a kv-server that is not the sequencer *)
let setup_reps = 5
(* The latencies are read per window of [rate * window_s] consecutive
   writes, at the window a tenth of the way in from the fastest. The
   deployment's latency wanders by a third over a few seconds — p50 of
   consecutive 2 s windows ran 1.7 to 3.0 ms within one run, with the
   same CPU per write — so the run's plain p50 spread 13 % between
   runs, the best quartile of 2 s windows 15 %, and the tenth of half
   a second windows 6 %. Throughput and CPU per write do not wander:
   they are taken over the whole run. *)
let window_s = 0.5
let latency_share = 0.1

(* The load's transport waits in [select] at most this long: it wakes at
   once when an ack arrives, and never oversleeps a due time by more. *)
let load_poll = 0.0002
let node_exe = "_build/default/bin/vsgc_node.exe"
let run_dir = ".vsbench_run"

(* -- Child processes -------------------------------------------------------- *)

type child = { name : string; pid : int; out : string }

let children : child list ref = ref []

(* Every exit path goes through here: normal return, failed check,
   exception, timeout, SIGTERM/SIGINT. *)
let kill_all () =
  let cs = !children in
  children := [];
  List.iter (fun c -> try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()) cs;
  List.iter
    (fun c ->
      let rec reap () =
        match Unix.waitpid [] c.pid with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
        | exception Unix.Unix_error _ -> ()
      in
      reap ())
    cs

let () =
  at_exit kill_all;
  let on_signal _ =
    kill_all ();
    exit 3
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)

let spawn name args =
  let out = Filename.concat run_dir (name ^ ".out") in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fd_err =
    Unix.openfile (Filename.concat run_dir (name ^ ".err")) [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let pid = Unix.create_process node_exe (Array.of_list (node_exe :: args)) Unix.stdin fd_out fd_err in
  Unix.close fd_out;
  Unix.close fd_err;
  let c = { name; pid; out } in
  children := c :: !children;
  c

let lines c = String.split_on_char '\n' (read_file c.out)

let exited c =
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Poll until [cond] holds; fail on a dead child or after [secs]. *)
let wait_for ?(secs = 20.) ~what cs cond =
  let t0 = now_ns () in
  while not (cond ()) do
    (match List.find_opt exited cs with
    | Some c -> failwith (Printf.sprintf "kv_tcp: %s exited while waiting for %s" c.name what)
    | None -> ());
    if s_since t0 > secs then failwith ("kv_tcp: timed out waiting for " ^ what);
    Unix.sleepf 0.001
  done

let has_line c prefix = List.exists (String.starts_with ~prefix) (lines c)

(* Ports the kernel hands out now, so back-to-back runs cannot collide. *)
let free_ports k =
  let socks =
    List.init k (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map (fun s -> match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0) socks
  in
  List.iter Unix.close socks;
  ports

(* -- The load ----------------------------------------------------------------- *)

let key = Kv_check.key
let value = Kv_check.value

type deployment = {
  servers : child list;  (* membership servers *)
  kvs : child list;  (* kv-servers *)
  tr : Transport.t;
}

let addr p = Printf.sprintf "127.0.0.1:%d" p

(* Start in dial order, each after the previous is READY (a dial that
   finds no listener backs off for 50 ms or more), then wait for the
   full view everywhere and connect the load. *)
let deploy ~seed =
  let p = Array.of_list (free_ports 5) in
  let timeout = [ "--timeout"; "170" ] in
  let start name args =
    let c = spawn name (args @ [ "--seed"; string_of_int (seed + List.length !children) ] @ timeout) in
    wait_for ~what:(name ^ " READY") [ c ] (fun () -> has_line c "READY");
    c
  in
  let s0 = start "s0" [ "server"; "--id"; "0"; "--listen"; addr p.(0) ] in
  let s1 = start "s1" [ "server"; "--id"; "1"; "--listen"; addr p.(1); "--peer"; "s0=" ^ addr p.(0) ] in
  let kv id attach peers =
    start (Printf.sprintf "p%d" id)
      ([ "kv-server"; "--batch"; "--id"; string_of_int id; "--attach"; string_of_int attach; "--listen"; addr p.(2 + id) ]
      @ List.concat_map (fun peer -> [ "--peer"; peer ]) peers)
  in
  let p0 = kv 0 0 [ "s0=" ^ addr p.(0) ] in
  let p1 = kv 1 1 [ "s1=" ^ addr p.(1); "p0=" ^ addr p.(2) ] in
  let p2 = kv 2 0 [ "s0=" ^ addr p.(0); "p0=" ^ addr p.(2); "p1=" ^ addr p.(3) ] in
  let all = [ s0; s1; p0; p1; p2 ] in
  let full c = List.exists (fun l -> String.starts_with ~prefix:"VIEW" l && Util.contains l "members={p0,p1,p2}") (lines c) in
  wait_for ~what:"the full view" all (fun () -> List.for_all full [ p0; p1; p2 ]);
  let tr =
    Tcp.create
      (Tcp.config ~listen:None ~poll_timeout:load_poll
         ~peers:[ (Node_id.client home, ("127.0.0.1", p.(2 + home))) ]
         (Node_id.kv_client client))
  in
  let up = ref false in
  wait_for ~what:"the load connection" all (fun () ->
      List.iter (function Transport.Up _ -> up := true | _ -> ()) (Transport.recv tr);
      !up);
  { servers = [ s0; s1 ]; kvs = [ p0; p1; p2 ]; tr }

let put tr ~seed seq k =
  Transport.send tr (Node_id.client home)
    (Packet.Kv_req (Kv_msg.Put { client; seq; key = key k; value = value seed seq }))

(* Drain the load's transport, calling [f] on every ack; returns how
   many events arrived. *)
let acks tr f =
  let evs = Transport.recv tr in
  List.iter
    (function
      | Transport.Received (_, Packet.Kv_resp (Kv_msg.Put_ack { client = c; seq })) when c = client -> f seq
      | _ -> ())
    evs;
  List.length evs

(* Write every key once and wait for the acks. *)
let preload d ~seed =
  let got = Array.make keys false and n = ref 0 in
  for k = 0 to keys - 1 do
    put d.tr ~seed k k
  done;
  wait_for ~what:"the preload acks" (d.servers @ d.kvs) (fun () ->
      ignore
        (acks d.tr (fun seq ->
             if seq < keys && not got.(seq) then begin
               got.(seq) <- true;
               incr n
             end));
      !n = keys)

let teardown d =
  Transport.close d.tr;
  kill_all ()

let pid c = string_of_int c.pid
let cpu cs = List.fold_left (fun a c -> a +. proc_cpu_s (pid c)) 0. cs
let status_sum cs field = List.fold_left (fun a c -> a + status_field (pid c) field) 0 cs

let last_store c =
  List.fold_left
    (fun acc l ->
      if String.starts_with ~prefix:"STORE " l then
        match String.split_on_char ' ' l with
        | [ _; d; a ] ->
            let v s = String.sub s (String.index s '=' + 1) (String.length s - String.index s '=' - 1) in
            Some (v d, int_of_string (v a))
        | _ -> acc
      else acc)
    None (lines c)

let workload ~seed ~seconds ~traced =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let setups =
    List.init setup_reps (fun i ->
        let t0 = now_ns () in
        let d = deploy ~seed in
        preload d ~seed;
        let dt = s_since t0 in
        if i < setup_reps - 1 then teardown d;
        (dt, d))
  in
  let d = snd (List.nth setups (setup_reps - 1)) in
  let setup_s = median (List.map fst setups) in
  let all = d.servers @ d.kvs in
  let total = int_of_float (rate *. seconds) in
  let rng = Random.State.make [| seed; 11 |] in
  let key_of = Array.init total (fun _ -> Random.State.int rng keys) in
  (* Poisson arrivals: exponential gaps of mean 1/rate. With evenly
     spaced writes the latency locked onto whole inter-arrival times,
     differently from run to run. *)
  let offset_ns = Array.make total 0L in
  let clock = ref 0. in
  for i = 0 to total - 1 do
    offset_ns.(i) <- Int64.of_float !clock;
    clock := !clock -. (Float.log (1. -. Random.State.float rng 1.) *. 1e9 /. rate)
  done;
  let acked = Array.make total false in
  (* segments: windows of [rate * window_s] consecutive writes *)
  let per_window = int_of_float (rate *. window_s) in
  let windows = (total + per_window - 1) / per_window in
  let latency = Array.init windows (fun _ -> Samples.create ()) and late = Samples.create () in
  let cpu_at = Array.make (windows + 1) 0. and last_ack_in = Array.make windows 0L in
  let n_acked = ref 0 and dups = ref 0 in
  let send_us = ref 0. and recv_cpu = ref 0. in
  let kv_cpu0 = cpu d.kvs and srv_cpu0 = cpu d.servers in
  let wake0 = status_sum d.kvs "voluntary_ctxt_switches" and rss0 = status_sum d.kvs "VmRSS" in
  let t0 = now_ns () in
  cpu_at.(0) <- kv_cpu0 +. srv_cpu0;
  let due_at i = Int64.add t0 offset_ns.(i) in
  let next = ref 0 in
  let give_up = Int64.add (due_at (total - 1)) 30_000_000_000L in
  while !n_acked < total && now_ns () < give_up do
    let now = now_ns () in
    while !next < total && due_at !next <= now do
      let i = !next in
      if i > 0 && i mod per_window = 0 then cpu_at.(i / per_window) <- cpu all;
      if traced then begin
        let t = now_ns () in
        put d.tr ~seed (keys + i) key_of.(i);
        send_us := !send_us +. us_since t
      end
      else put d.tr ~seed (keys + i) key_of.(i);
      Samples.add late (us_between (due_at i) now);
      incr next
    done;
    let c0 = if traced then self_cpu_s () else 0. in
    let events =
      acks d.tr (fun seq ->
        let i = seq - keys in
        if i >= 0 && i < !next && not acked.(i) then begin
          acked.(i) <- true;
          incr n_acked;
          let t = now_ns () in
          last_ack_in.(i / per_window) <- t;
          Samples.add latency.(i / per_window) (us_between (due_at i) t)
        end
        else incr dups)
    in
    (* empty polls are the wait, not the wire *)
    if traced && events > 0 then recv_cpu := !recv_cpu +. (self_cpu_s () -. c0)
  done;
  cpu_at.(windows) <- cpu all;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* the servers' figures, read before anything is killed *)
  let kv_cpu = cpu d.kvs -. kv_cpu0 and srv_cpu = cpu d.servers -. srv_cpu0 in
  let wakeups = status_sum d.kvs "voluntary_ctxt_switches" - wake0 in
  let rss_growth = status_sum d.kvs "VmRSS" - rss0 in
  (* every kv-server's last STORE line must show the fold of the acked
     writes, preload first *)
  let fold = Array.init keys (fun k -> value seed k) in
  Array.iteri (fun i k -> if acked.(i) then fold.(k) <- value seed (keys + i)) key_of;
  let expected = Kv_check.digest fold in
  (try
     wait_for ~secs:20. ~what:"the final STORE lines" all (fun () ->
         List.for_all
           (fun c -> match last_store c with Some (_, a) -> a >= keys + !n_acked | None -> false)
           d.kvs)
   with Failure m -> problem "%s" m);
  List.iter
    (fun (name, _) -> problem "%s's last STORE digest differs from the fold of the acked writes" name)
    (Kv_check.mismatched ~expected
       (List.map (fun (c : child) -> (c.name, match last_store c with Some (dg, _) -> dg | None -> "")) d.kvs));
  let hwm_kb = status_sum all "VmHWM" in
  teardown d;
  let failed = total - !n_acked in
  if failed > 0 then problem "%d of %d writes unacked" failed total;
  if !dups > 0 then problem "%d duplicate or unknown acks" !dups;
  let w = fi total in
  let segments =
    List.init windows (fun k ->
        let start = due_at (k * per_window) in
        segment
          ~secs:(us_between start last_ack_in.(k) /. 1e6)
          ~ops:(Samples.length latency.(k))
          ~cpu_s:(cpu_at.(k + 1) -. cpu_at.(k))
          latency.(k))
  in
  let e2e = e2e_metrics ~latency_share ~whole_run:true ~setup_s ~peak_rss_mb:(fi hwm_kb /. 1024.) segments in
  let layers =
    if not traced then []
    else
      [
        Util.m "wire.send_us_per_write" "us" (!send_us /. w);
        Util.m "wire.recv_us_per_write" "us" (1e6 *. !recv_cpu /. w);
        Util.m "load.late_us_p99" "us" (percentile (Samples.sorted late) 0.99);
        Util.m "kv.server_cpu_us_per_write" "us" (1e6 *. kv_cpu /. w);
        Util.m "mbrshp.server_cpu_us_per_write" "us" (1e6 *. srv_cpu /. w);
        Util.m "kv.server_wakeups_per_write" "count" (fi wakeups /. w);
        Util.m "kv.server_rss_kb_per_kwrite" "kB" (fi rss_growth /. (w /. 1000.));
      ]
  in
  let notes = List.rev !problems in
  { correct = notes = []; attempted = total; failed; e2e; layers; notes }
