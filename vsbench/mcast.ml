(* The two simulated multicast workloads.

   [mcast_n32]: 32 members under the oracle membership, no monitors, no
   invariants — scheduling ([ioa]) and the CO_RFIFO hub ([corfifo]) do
   nearly all the work. [mcast_checked]: 8 members with every safety
   monitor and the whole invariant battery after every step, and view
   changes (a leave, a crash and recovery, the full group again) racing
   the traffic — the checkers do nearly all the work.

   The benchmark names every message itself and records App_send,
   App_deliver, App_view and Crash from its own step hook, so the
   delivery check below is computed apart from the program. *)

open Vsgc_types
open Util
module System = Vsgc_harness.System
module Executor = Vsgc_ioa.Executor
module Metrics = Vsgc_ioa.Metrics
module Monitor = Vsgc_ioa.Monitor
module Invariants = Vsgc_checker.Invariants

type conf = {
  n : int;
  checked : bool;
  per_sender : int;  (* messages each member multicasts per round *)
  mutation : Vsgc_core.Vs_rfifo_ts.mutation option;
}

let n32 = { n = 32; checked = false; per_sender = 1; mutation = None }
let checked = { n = 8; checked = true; per_sender = 2; mutation = None }

(* -- The benchmark's own delivery log ------------------------------------- *)

(* One incarnation of a process: a crash starts a new one (§8). *)
type inc = {
  uid : int;
  proc : Proc.t;
  mutable views : View.t list;  (* installed, newest first *)
  mutable crashed : bool;
  last_from : (Proc.t, int) Hashtbl.t;  (* sender -> last message id *)
  delivered_in : (View.Id.t, int list) Hashtbl.t;  (* view -> ids, newest first *)
}

type msg = {
  id : int;  (* global, so increasing along every sender's FIFO order *)
  sender : Proc.t;
  stable : bool;  (* sent in a round with no view change pending *)
  push_inc : int;  (* uid of the incarnation the payload was queued at *)
  mutable send_inc : int;  (* uid of the sending incarnation, -1 before App_send *)
  mutable view : View.Id.t option;
  mutable sent_ns : int64;
  mutable receivers : int list;  (* incarnation uids *)
  mutable bad : bool;  (* wrong view, duplicate or FIFO inversion *)
}

type log = {
  mutable incs : inc list;  (* every incarnation, newest first *)
  current : inc array;  (* process -> live incarnation *)
  msgs : (int, msg) Hashtbl.t;
  mutable next_id : int;
  mutable next_uid : int;
  mutable requested : View.t list;
  mutable latency : Samples.t;  (* send -> deliver, per delivery, us *)
  mutable deliveries : int;
  mutable problems : string list;
}

let new_inc lg p =
  let i =
    {
      uid = lg.next_uid;
      proc = p;
      views = [];
      crashed = false;
      last_from = Hashtbl.create 16;
      delivered_in = Hashtbl.create 8;
    }
  in
  lg.next_uid <- lg.next_uid + 1;
  lg.incs <- i :: lg.incs;
  i

let create_log n =
  let lg =
    {
      incs = [];
      current = [||];
      msgs = Hashtbl.create 4096;
      next_id = 0;
      next_uid = 0;
      requested = [];
      latency = Samples.create ();
      deliveries = 0;
      problems = [];
    }
  in
  let current = Array.init n (fun p -> new_inc lg p) in
  { lg with current }

let problem lg fmt = Printf.ksprintf (fun s -> lg.problems <- s :: lg.problems) fmt
let payload_id m = int_of_string (String.sub m 1 (String.length m - 1))

let cur_view inc = match inc.views with v :: _ -> Some (View.id v) | [] -> None

let observe lg (a : Action.t) =
  match a with
  | Action.App_send (p, m) -> (
      match Hashtbl.find_opt lg.msgs (payload_id (Msg.App_msg.payload m)) with
      | None -> problem lg "unknown message %s sent" (Msg.App_msg.payload m)
      | Some msg ->
          let inc = lg.current.(p) in
          msg.send_inc <- inc.uid;
          msg.view <- cur_view inc;
          msg.sent_ns <- now_ns ();
          if msg.view = None then msg.bad <- true)
  | Action.App_deliver (q, s, m) -> (
      lg.deliveries <- lg.deliveries + 1;
      match Hashtbl.find_opt lg.msgs (payload_id (Msg.App_msg.payload m)) with
      | None -> problem lg "unknown message %s delivered" (Msg.App_msg.payload m)
      | Some msg ->
          let inc = lg.current.(q) in
          Samples.add lg.latency (us_since msg.sent_ns);
          let last = Option.value ~default:(-1) (Hashtbl.find_opt inc.last_from s) in
          if msg.sender <> s || msg.id <= last || cur_view inc <> msg.view then
            msg.bad <- true;
          Hashtbl.replace inc.last_from s (max last msg.id);
          msg.receivers <- inc.uid :: msg.receivers;
          match cur_view inc with
          | Some vid ->
              let ids = Option.value ~default:[] (Hashtbl.find_opt inc.delivered_in vid) in
              Hashtbl.replace inc.delivered_in vid (msg.id :: ids)
          | None -> ())
  | Action.App_view (p, v, _) ->
      let inc = lg.current.(p) in
      inc.views <- v :: inc.views
  | Action.Crash p ->
      lg.current.(p).crashed <- true;
      lg.current.(p) <- new_inc lg p
  | _ -> ()

(* The view an incarnation installed right after [vid], if any. *)
let next_view inc vid =
  let rec go = function
    | v' :: v :: rest -> if View.Id.equal (View.id v) vid then Some (View.id v') else go (v :: rest)
    | _ -> None
  in
  go inc.views

let installed inc vid = List.exists (fun v -> View.Id.equal (View.id v) vid) inc.views

(* Who must deliver a message. A message sent with no change pending
   reaches every member of its view. One that raced a view change
   reaches the members that moved on together with its sender (Self
   Delivery plus Virtual Synchrony); one whose sender crashed in the
   view is owed to no one, though the movers must still agree on it
   (checked by [vs_agreement]). *)
let expected lg msg vid =
  let holders = List.filter (fun i -> installed i vid) lg.incs in
  if msg.stable then holders
  else
    match List.find_opt (fun i -> i.uid = msg.send_inc) lg.incs with
    | None -> []
    | Some s -> (
        match next_view s vid with
        | Some nv -> List.filter (fun i -> next_view i vid = Some nv) holders
        | None ->
            if s.crashed then []
            else List.filter (fun i -> (not i.crashed) && cur_view i = Some vid) holders)

(* Every message: delivered by everyone it is owed to, in its view,
   once, in per-sender FIFO order. Returns the ids that failed. *)
let failed_messages lg =
  Hashtbl.fold
    (fun _ msg acc ->
      let fail why =
        if List.length acc < 5 then problem lg "message m%d from p%d: %s" msg.id msg.sender why;
        msg.id :: acc
      in
      match msg.view with
      | None -> fail "never sent"
      | Some vid ->
          let owed = expected lg msg vid in
          let missed = List.filter (fun i -> not (List.mem i.uid msg.receivers)) owed in
          if msg.bad then fail "delivered twice, out of FIFO order or in another view"
          else if missed <> [] then
            fail ("missed by " ^ String.concat " " (List.map (fun i -> Printf.sprintf "p%d" i.proc) missed))
          else acc)
    lg.msgs []

(* Members that move together from one view to the next delivered the
   same messages in it. *)
let vs_agreement lg =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun inc ->
      let rec go = function
        | v' :: v :: rest ->
            let key = (View.id v, View.id v') in
            let got =
              List.sort Int.compare
                (Option.value ~default:[] (Hashtbl.find_opt inc.delivered_in (View.id v)))
            in
            (match Hashtbl.find_opt seen key with
            | None -> Hashtbl.replace seen key got
            | Some other ->
                if other <> got then
                  problem lg "p%d delivered %d messages in view %d before moving on, a peer %d"
                    inc.proc (List.length got) (View.Id.num (View.id v)) (List.length other));
            go (v :: rest)
        | _ -> ()
      in
      go inc.views)
    lg.incs

(* Each requested view is installed by exactly its members, once, and
   no other view is installed. *)
let views_as_requested lg =
  List.iter
    (fun v ->
      let by = List.filter (fun i -> installed i (View.id v)) lg.incs |> List.map (fun i -> i.proc) in
      let sorted = List.sort_uniq Int.compare by in
      if List.length by <> List.length sorted || sorted <> Proc.Set.elements (View.set v) then
        problem lg "view %d installed by the wrong processes" (View.Id.num (View.id v)))
    lg.requested;
  List.iter
    (fun inc ->
      List.iter
        (fun v ->
          if not (List.exists (View.equal v) lg.requested) then
            problem lg "p%d installed unrequested view %d" inc.proc (View.Id.num (View.id v)))
        inc.views)
    lg.incs

(* The whole delivery check: (messages attempted, ids of the messages
   that failed); anything else wrong lands in [lg.problems]. *)
let judge lg =
  (* a crash discards the client's unsent queue: those messages never
     entered the group and are not operations *)
  Hashtbl.filter_map_inplace
    (fun _ msg -> if msg.send_inc < 0 && lg.current.(msg.sender).uid <> msg.push_inc then None else Some msg)
    lg.msgs;
  let failed = failed_messages lg in
  vs_agreement lg;
  views_as_requested lg;
  (Hashtbl.length lg.msgs, failed)

(* -- Per-layer attribution (traced runs only) ---------------------------- *)

type trace = {
  mutable t_end : int64;  (* end of the previous step's observers *)
  mutable t_choice : int64;
  mutable apply_open : bool;
  mutable rf_step : bool;
  mutable sched_us : float;
  mutable apply_us : float;
  mutable corfifo_us : float;
  mutable core_us : float;
  mon_names : string array;
  mon_us : float array;
  mutable snapshot_us : float;
  inv_us : float array;
  mutable phase_check_us : float;  (* invariant time in the current round *)
}

let is_rf (a : Action.t) =
  match Action.category a with
  | Action.C_rf_send | C_rf_deliver | C_rf_reliable | C_rf_live | C_rf_lose -> true
  | _ -> false

let close_apply tr =
  if tr.apply_open then begin
    tr.apply_open <- false;
    let d = us_since tr.t_choice in
    tr.apply_us <- tr.apply_us +. d;
    if tr.rf_step then tr.corfifo_us <- tr.corfifo_us +. d else tr.core_us <- tr.core_us +. d
  end

let timed_monitor tr i (mon : Monitor.t) =
  {
    mon with
    Monitor.on_action =
      (fun a ->
        close_apply tr;
        let t0 = now_ns () in
        mon.Monitor.on_action a;
        tr.mon_us.(i) <- tr.mon_us.(i) +. us_since t0);
  }

(* -- The workload --------------------------------------------------------- *)

type sim = { sys : System.t; exec : Executor.t; lg : log; tr : trace option }

let new_trace () =
  let names = List.map (fun (m : Monitor.t) -> m.Monitor.name) (Vsgc_spec.All.safety ()) in
  {
    t_end = 0L;
    t_choice = 0L;
    apply_open = false;
    rf_step = false;
    sched_us = 0.;
    apply_us = 0.;
    corfifo_us = 0.;
    core_us = 0.;
    mon_names = Array.of_list names;
    mon_us = Array.make (List.length names) 0.;
    snapshot_us = 0.;
    inv_us = Array.make (List.length Invariants.all) 0.;
    phase_check_us = 0.;
  }

(* A fresh system with this benchmark's observers; [tr] collects the
   per-layer times of every system a traced run builds. *)
let build conf ~seed ~tr =
  let sys = System.create ~seed ~monitors:`None ?mutation:conf.mutation ~n:conf.n () in
  let exec = System.exec sys in
  let lg = create_log conf.n in
  let monitors = if conf.checked then Vsgc_spec.All.safety () else [] in
  (match tr with
  | None ->
      List.iter (Executor.add_monitor exec) monitors;
      if conf.checked then
        Executor.add_step_hook exec (fun _ ->
            let s = System.snapshot sys in
            List.iter (fun (_, check) -> check s) Invariants.all)
  | Some tr ->
      (* added first, so it runs last among this benchmark's step hooks:
         everything from here to the next choice is scheduling *)
      Executor.add_step_hook exec (fun _ -> tr.t_end <- now_ns ());
      Executor.add_choice_hook exec (fun _ a ->
          tr.t_choice <- now_ns ();
          tr.sched_us <- tr.sched_us +. us_between tr.t_end tr.t_choice;
          tr.apply_open <- true;
          tr.rf_step <- is_rf a);
      List.iteri (fun i mon -> Executor.add_monitor exec (timed_monitor tr i mon)) monitors;
      if conf.checked then
        Executor.add_step_hook exec (fun _ ->
            close_apply tr;
            let t0 = now_ns () in
            let s = System.snapshot sys in
            let t1 = now_ns () in
            tr.snapshot_us <- tr.snapshot_us +. us_between t0 t1;
            List.iteri
              (fun i (_, check) ->
                let t = now_ns () in
                check s;
                tr.inv_us.(i) <- tr.inv_us.(i) +. us_since t)
              Invariants.all;
            tr.phase_check_us <- tr.phase_check_us +. us_since t1));
  (* added last, so it runs first among the step hooks *)
  Executor.add_step_hook exec (fun a ->
      (match tr with Some tr -> close_apply tr | None -> ());
      observe lg a);
  { sys; exec; lg; tr }

let max_steps_per_round = 20_000_000

(* Run the scheduler until quiescent, or for at most [limit] steps.
   Always through [Executor.run]: its loop trusts the candidate cache,
   which single [Executor.step] calls resynchronize away. *)
let run ?limit s =
  let max_steps = Option.value ~default:max_steps_per_round limit in
  (match s.tr with Some tr -> tr.t_end <- now_ns () | None -> ());
  let outcome = Executor.run ~max_steps s.exec in
  (match s.tr with Some tr -> tr.sched_us <- tr.sched_us +. us_since tr.t_end | None -> ());
  match (outcome, limit) with
  | Executor.Step_limit, None -> failwith "no quiescence within the step budget"
  | _ -> ()

let reconfigure s set = s.lg.requested <- System.reconfigure s.sys ~set :: s.lg.requested

let multicast s ~conf ~stable senders =
  Proc.Set.iter
    (fun p ->
      for _ = 1 to conf.per_sender do
        let id = s.lg.next_id in
        s.lg.next_id <- id + 1;
        Hashtbl.replace s.lg.msgs id
          {
            id;
            sender = p;
            stable;
            push_inc = s.lg.current.(p).uid;
            send_inc = -1;
            view = None;
            sent_ns = 0L;
            receivers = [];
            bad = false;
          };
        System.send s.sys p (Printf.sprintf "m%d" id)
      done)
    senders

let full conf = Proc.Set.of_range 0 (conf.n - 1)

let setup ?tr conf ~seed =
  let s = build conf ~seed ~tr in
  reconfigure s (full conf);
  run s;
  s

(* The rounds of the checked workload. [Leave] and [Crash] multicast,
   let the traffic run for [race] steps, then change the view under
   it. *)
type round =
  | Stable of Proc.Set.t
  | Leave of Proc.Set.t * Proc.t * int
  | Crash of Proc.Set.t * Proc.t * int
  | Rejoin of Proc.Set.t * Proc.t

let play s conf = function
  | Stable members ->
      multicast s ~conf ~stable:true members;
      run s
  | Leave (members, x, race) ->
      multicast s ~conf ~stable:false members;
      run ~limit:race s;
      reconfigure s (Proc.Set.remove x members);
      run s
  | Crash (members, y, race) ->
      multicast s ~conf ~stable:false members;
      run ~limit:race s;
      System.crash s.sys y;
      reconfigure s (Proc.Set.remove y members);
      run s
  | Rejoin (members, y) ->
      System.recover s.sys y;
      reconfigure s members;
      run s

(* One system's life in the checked workload: a round in the full view,
   one raced by [x]'s departure, one in the smaller view, one raced by
   [y]'s crash, [y]'s recovery with the full view again, and a last
   full-view round. A stable round takes about 20 steps per message at
   n = 8: the departure lands a third of the way into its round's
   traffic, the crash two thirds of the way, so every life does the
   same work up to the schedule its seed picks. *)
let life conf ~epoch =
  let f = full conf in
  let x = epoch mod conf.n in
  let y = (x + 1 + (epoch / conf.n mod (conf.n - 1))) mod conf.n in
  let span = 20 * conf.per_sender * conf.n in
  let less_x = Proc.Set.remove x f in
  [ Stable f; Leave (f, x, span / 3); Stable less_x; Crash (less_x, y, 2 * span / 3); Rejoin (f, y); Stable f ]

let setup_reps = 7

let kinds = Msg.Wire.[ K_view_msg; K_app; K_fwd; K_sync; K_sync_batch; K_bsync ]

(* Counters of one system, read before and after its timed share. *)
type counts = { steps : int; hits : int; misses : int; sent : int; bytes : int }

let counts s =
  let m = Executor.metrics s.exec in
  {
    steps = Metrics.steps m;
    hits = Metrics.cand_hits m;
    misses = Metrics.cand_misses m;
    sent = List.fold_left (fun a k -> a + Metrics.sent_count m k) 0 kinds;
    bytes = List.fold_left (fun a k -> a + Metrics.sent_bytes m k) 0 kinds;
  }

let add a b =
  { steps = a.steps + b.steps; hits = a.hits + b.hits; misses = a.misses + b.misses; sent = a.sent + b.sent; bytes = a.bytes + b.bytes }

(* Both workloads repeat one unit of fixed work on a fresh system until
   the measurement time is spent: [n32_rounds] full-view rounds for
   [mcast_n32], one [life] for [mcast_checked]. A fresh system per unit
   keeps the work, and the memory it needs, the same in every run
   however fast the host is; the check cost's growth with a system's
   history is reported per unit as [checker.growth]. Building the next
   system is not timed. Per-layer figures cover set-up steps too. *)
let n32_rounds = 4

let workload conf ~seed ~seconds ~traced =
  let setup_s =
    median
      (List.init setup_reps (fun i ->
           let t0 = now_ns () in
           ignore (setup conf ~seed:(seed + (1000 * i)));
           s_since t0))
  in
  let tr = if traced then Some (new_trace ()) else None in
  let segments = ref [] in
  let total = ref { steps = 0; hits = 0; misses = 0; sent = 0; bytes = 0 } in
  let attempted = ref 0 and failed = ref 0 and deliveries = ref 0 and notes = ref [] in
  let growth = ref [] in
  let elapsed = ref 0. and minor_words = ref 0. and majors = ref 0 in
  let epoch = ref 0 in
  while !elapsed < seconds && !notes = [] do
    let gc0 = Gc.quick_stat () in
    let s = setup ?tr conf ~seed:(seed + (7919 * (!epoch + 1))) in
    (* the measurement segments: each round on mcast_n32, the whole
       life on mcast_checked *)
    let pieces = ref [] in
    let piece f =
      s.lg.latency <- Samples.create ();
      let id0 = s.lg.next_id and cpu0 = self_cpu_s () and t0 = now_ns () in
      f ();
      pieces := (s_since t0, self_cpu_s () -. cpu0, id0, s.lg.next_id, s.lg.latency) :: !pieces
    in
    let full_rounds = ref [] in
    let play_round r =
      let st0 = Metrics.steps (Executor.metrics s.exec) in
      (match tr with Some tr -> tr.phase_check_us <- 0. | None -> ());
      play s conf r;
      match (r, tr) with
      | Stable set, Some tr when Proc.Set.cardinal set = conf.n ->
          let steps = Metrics.steps (Executor.metrics s.exec) - st0 in
          full_rounds := ratio tr.phase_check_us (fi steps) :: !full_rounds
      | _ -> ()
    in
    (try
       if conf.checked then piece (fun () -> List.iter play_round (life conf ~epoch:!epoch))
       else
         for _ = 1 to n32_rounds do
           piece (fun () -> play_round (Stable (full conf)))
         done;
       Executor.finish s.exec
     with
    | Monitor.Violation { monitor; message } -> notes := [ monitor ^ ": " ^ message ]
    | Invariants.Invariant_violation { name; message } -> notes := [ "invariant " ^ name ^ ": " ^ message ]);
    let gc1 = Gc.quick_stat () in
    minor_words := !minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    majors := !majors + (gc1.Gc.major_collections - gc0.Gc.major_collections);
    (match !full_rounds with
    | last :: (_ :: _ as rest) -> growth := ratio last (List.nth rest (List.length rest - 1)) :: !growth
    | _ -> ());
    total := add !total (counts s);
    let a, failed_ids = judge s.lg in
    attempted := !attempted + a;
    failed := !failed + List.length failed_ids;
    List.iter
      (fun (secs, cpu_s, id0, id1, latency) ->
        let ok id = Hashtbl.mem s.lg.msgs id && not (List.mem id failed_ids) in
        let ops = List.length (List.filter ok (List.init (id1 - id0) (fun k -> id0 + k))) in
        elapsed := !elapsed +. secs;
        segments := segment ~secs ~ops ~cpu_s latency :: !segments)
      !pieces;
    deliveries := !deliveries + s.lg.deliveries;
    notes := !notes @ List.rev s.lg.problems;
    incr epoch
  done;
  let notes =
    if !failed > 0 then Printf.sprintf "%d of %d messages failed" !failed !attempted :: !notes else !notes
  in
  let c = !total in
  let steps = fi c.steps and deliveries = fi !deliveries in
  let e2e = e2e_metrics ~setup_s ~peak_rss_mb:(self_hwm_mb ()) !segments in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let per_step x = ratio x steps in
        let hits = fi c.hits and misses = fi c.misses in
        [
          Util.m "ioa.sched_us_per_step" "us" (per_step tr.sched_us);
          Util.m "ioa.apply_us_per_step" "us" (per_step tr.apply_us);
          Util.m "ioa.steps_per_delivery" "count" (ratio steps deliveries);
          Util.m "ioa.cand_hit_ratio" "ratio" (ratio hits (hits +. misses));
          Util.m "ioa.cand_lookups" "count" (hits +. misses);
          Util.m "corfifo.apply_us_per_step" "us" (per_step tr.corfifo_us);
          Util.m "corfifo.msgs_per_delivery" "count" (ratio (fi c.sent) deliveries);
          Util.m "corfifo.bytes_per_delivery" "B" (ratio (fi c.bytes) deliveries);
          Util.m "core.apply_us_per_step" "us" (per_step tr.core_us);
          Util.m "spec.us_per_step" "us" (per_step (Array.fold_left ( +. ) 0. tr.mon_us));
          Util.m "harness.snapshot_us_per_step" "us" (per_step tr.snapshot_us);
          Util.m "checker.us_per_step" "us" (per_step (Array.fold_left ( +. ) 0. tr.inv_us));
          Util.m "checker.growth" "ratio" (if !growth = [] then 0. else median !growth);
          Util.m "gc.minor_words_per_step" "words" (per_step !minor_words);
          Util.m "gc.major_collections" "count" (fi !majors);
        ]
        @ Array.to_list
            (Array.mapi
               (fun i name -> Util.m ("spec." ^ name ^ ".us_per_step") "us" (per_step tr.mon_us.(i)))
               tr.mon_names)
        @ List.mapi
            (fun i (name, _) -> Util.m ("checker." ^ name ^ ".us_per_step") "us" (per_step tr.inv_us.(i)))
            Invariants.all
  in
  { correct = notes = []; attempted = !attempted; failed = !failed; e2e; layers; notes }
