(* Planted faults: each check must reject a run that is wrong.

     vsbench.exe --selftest

   - mcast_checked built with the No_sync_wait mutation (views installed
     without waiting for the peers' synchronization messages) must
     report a violation;
   - the multicast delivery check must fail a message whose delivery
     was dropped, and one delivered twice;
   - the KV check must reject a store that is missing one acked write.

   Exits 0 when every planted fault is caught. *)

open Vsgc_types
open Util

let mutation () =
  let conf = { Mcast.checked with Mcast.mutation = Some Vsgc_core.Vs_rfifo_ts.No_sync_wait } in
  (* a violation needs a view change to race undelivered traffic the
     right way; a few seeds of a short run are plenty *)
  let rec go seed =
    if seed > 8 then false
    else
      let r = Mcast.workload conf ~seed ~seconds:5. ~traced:false in
      if not r.correct then begin
        log "mutation caught (seed %d): %s" seed (String.concat "; " r.notes);
        true
      end
      else go (seed + 1)
  in
  go 1

(* Replay a clean run's actions into a fresh delivery log, with one
   App_deliver dropped or doubled. *)
let delivery_check () =
  let conf = { Mcast.n32 with Mcast.n = 4 } in
  let s = Mcast.setup conf ~seed:5 in
  Mcast.multicast s ~conf ~stable:true (Proc.Set.of_range 0 3);
  Mcast.run s;
  let actions = Vsgc_ioa.Executor.trace s.Mcast.exec in
  let replay plant =
    let lg = Mcast.create_log conf.Mcast.n in
    Hashtbl.iter
      (fun id (m : Mcast.msg) ->
        Hashtbl.replace lg.Mcast.msgs id
          { m with send_inc = -1; view = None; sent_ns = 0L; receivers = []; bad = false })
      s.Mcast.lg.Mcast.msgs;
    lg.Mcast.requested <- s.Mcast.lg.Mcast.requested;
    let k = ref 0 in
    List.iter
      (fun a ->
        match a with
        | Action.App_deliver (q, p, _) when q <> p ->
            incr k;
            List.iter (Mcast.observe lg) (plant !k a)
        | _ -> Mcast.observe lg a)
      actions;
    List.length (snd (Mcast.judge lg))
  in
  let clean = replay (fun _ a -> [ a ]) in
  let dropped = replay (fun k a -> if k = 7 then [] else [ a ]) in
  let doubled = replay (fun k a -> if k = 7 then [ a; a ] else [ a ]) in
  log "delivery check: clean %d failed, dropped %d failed, doubled %d failed" clean dropped doubled;
  clean = 0 && dropped = 1 && doubled = 1

(* A real deployment's store, then the same store missing the last
   acked write. *)
let kv_check () =
  let s = Kv_rejoin.setup ~seed:3 in
  for _ = 1 to 20 do
    Kv_rejoin.round s ~w:2 ~timed:false
  done;
  Kv_rejoin.drive_until s ~what:"quiescence" ~budget:10_000 ~w:0 (fun () -> Kv_rejoin.settled s);
  let expected = Kv_rejoin.fold_digest s in
  let real = Vsgc_kv.Kv_system.digests s.Kv_rejoin.t in
  let last = s.Kv_rejoin.ld.Kv_rejoin.next_seq - 1 in
  let k = s.Kv_rejoin.ld.Kv_rejoin.key_of.(last) in
  (* the previous write to that key, or its preload *)
  let prev = ref k in
  for seq = Kv_rejoin.keys to last - 1 do
    if s.Kv_rejoin.ld.Kv_rejoin.key_of.(seq) = k then prev := seq
  done;
  let map = Vsgc_kv.Kv_store.map (Kv_rejoin.store s 0) in
  let missing =
    Vsgc_kv.Kv_store.Smap.add (Kv_check.key k) (Kv_check.value 3 !prev) map
    |> Vsgc_kv.Kv_store.digest_map
  in
  let clean_ok = Kv_check.mismatched ~expected real = [] in
  let caught = Kv_check.mismatched ~expected [ (0, missing) ] <> [] in
  log "kv check: clean stores %s, store missing write %d %s" (if clean_ok then "pass" else "FAIL")
    last (if caught then "rejected" else "ACCEPTED");
  clean_ok && caught

let run () =
  let delivery = delivery_check () in
  let kv = kv_check () in
  let results = [ ("delivery", delivery); ("kv", kv); ("mutation", mutation ()) ] in
  List.iter (fun (name, ok) -> log "selftest %s: %s" name (if ok then "ok" else "FAILED")) results;
  if List.for_all snd results then 0 else 1
