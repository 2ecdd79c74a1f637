(* Measurement plumbing shared by the workloads: a monotonic clock,
   raw-sample percentiles, process CPU and memory readings, the host
   reference kernel, and the result record every workload returns. *)

let now_ns () = Monotonic_clock.now ()
let us_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3
let us_since t0 = us_between t0 (now_ns ())
let s_since t0 = us_since t0 /. 1e6

(* CPU seconds (user + system) of this process. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A growable buffer of raw samples; percentiles are taken from the
   samples themselves, never from histogram buckets. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort Float.compare b;
    b
end

(* Nearest-rank percentile of sorted samples (nan when empty). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* -- /proc ------------------------------------------------------------------ *)

(* Read to the end in chunks: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ()
      in
      go ();
      Buffer.contents buf)

(* An integer field of /proc/<pid>/status, e.g. "VmHWM" (kB) or
   "voluntary_ctxt_switches". *)
let status_field pid field =
  let text = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let prefix = field ^ ":" in
  let lines = String.split_on_char '\n' text in
  match List.find_opt (String.starts_with ~prefix) lines with
  | None -> failwith (Printf.sprintf "no %s in /proc/%s/status" field pid)
  | Some line ->
      let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
      let digits = String.trim rest |> String.split_on_char ' ' |> List.hd in
      int_of_string digits

(* CPU seconds (user + system) a process has used: nanosecond run time
   from schedstat when the kernel exposes it, clock ticks from stat
   otherwise. *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%s/schedstat" pid) with
  | s -> (
      match String.split_on_char ' ' (String.trim s) with
      | ns :: _ -> Int64.to_float (Int64.of_string ns) /. 1e9
      | [] -> failwith "empty schedstat")
  | exception Sys_error _ ->
      let s = read_file (Printf.sprintf "/proc/%s/stat" pid) in
      (* fields after the parenthesised command name; utime and stime
         are the 12th and 13th of them *)
      let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let self_hwm_mb () = fi (status_field "self" "VmHWM") /. 1024.

(* -- Host reference ------------------------------------------------------ *)

(* A fixed pure-OCaml integer kernel, timed before and after each
   workload. Its time moves only with the host (frequency, contention),
   so it separates a slower machine from a slower program. *)
let host_kernel () =
  let a = Array.init 4096 (fun i -> i) in
  let acc = ref 0 in
  for r = 1 to 200 do
    for i = 0 to 4095 do
      let x = ((a.(i) * 1103515245) + r) land 0x3fffffff in
      a.(i) <- x;
      acc := !acc lxor x
    done
  done;
  !acc

let host_ref_samples () =
  List.init 7 (fun _ ->
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (host_kernel ()));
      us_since t0)

(* -- Results -------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
      (* per-layer metrics this workload measures; the rest read 0 *)
  notes : string list;  (* reasons [correct] is false, for stderr *)
}

(* A run measures in segments — a unit of fixed work, or a fixed window
   of time — and reports, for each metric, the segments' first quartile
   on the better side. Contention from outside this machine slows
   everything here by up to 2x for tens to hundreds of milliseconds at a
   time (host.ref_us shows it); the best quarter of the segments moved
   about half as much between runs as their median or their mean.

   [kv_tcp] reads its latencies further to the better side, at
   [latency_share], over many short windows, and its throughput and CPU
   cost from the whole run ([whole_run]): see [Kv_tcp.window_s]. *)
type segment = { secs : float; ops : int; cpu_s : float; latency : float array (* sorted, us *) }

let segment ~secs ~ops ~cpu_s samples = { secs; ops; cpu_s; latency = Samples.sorted samples }

(* The value [share] of the way in from the better end. *)
let best_share ~share ~lower xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a (if lower then share else 1. -. share)

let e2e_metrics ?(latency_share = 0.25) ?(whole_run = false) ~setup_s ~peak_rss_mb segs =
  let q ?(share = 0.25) ~lower f = best_share ~share ~lower (List.map f segs) in
  let sum f = List.fold_left (fun a s -> a +. f s) 0. segs in
  let ops_per_s, cpu_us_per_op =
    if whole_run then
      let ops = sum (fun s -> fi s.ops) in
      (ratio ops (sum (fun s -> s.secs)), 1e6 *. ratio (sum (fun s -> s.cpu_s)) ops)
    else
      ( q ~lower:false (fun s -> ratio (fi s.ops) s.secs),
        q ~lower:true (fun s -> 1e6 *. ratio s.cpu_s (fi s.ops)) )
  in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" ops_per_s;
    m "latency_p50_us" "us" (q ~share:latency_share ~lower:true (fun s -> percentile s.latency 0.5));
    m "latency_p99_us" "us" (q ~share:latency_share ~lower:true (fun s -> percentile s.latency 0.99));
    m "cpu_us_per_op" "us" cpu_us_per_op;
    m "peak_rss_mb" "MB" peak_rss_mb;
  ]

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("vsbench: " ^ s)) fmt

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0
