(* The KV workloads' store check, computed apart from the program:
   the benchmark folds the acked writes itself (last value per key, in
   the one load connection's FIFO order, which the total order keeps)
   and digests the result with [Kv_store]'s encoding. *)

module Kv_store = Vsgc_kv.Kv_store

let value_bytes = 32
let key i = Printf.sprintf "k%05d" i

let value seed seq =
  let base = Printf.sprintf "v%d.%d." seed seq in
  base ^ String.make (max 0 (value_bytes - String.length base)) '.'

(* [fold.(k)] is the value the store must hold at key [k]. *)
let digest fold =
  Array.to_seqi fold
  |> Seq.fold_left (fun m (k, v) -> Kv_store.Smap.add (key k) v m) Kv_store.Smap.empty
  |> Kv_store.digest_map

(* The named stores whose digest differs from the fold's. *)
let mismatched ~expected stores = List.filter (fun (_, d) -> not (String.equal d expected)) stores
