(* Raw timing samples and exact order statistics.

   Every end-to-end latency is computed from the full set of raw samples
   (nearest-rank quantiles over a sorted copy), never from a bucketed
   histogram, so a p99 moves with the data instead of snapping to a
   bucket edge. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 1024 0; len = 0 }

let add t v =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Int.compare a;
  a

(* Nearest-rank quantile of a sorted array, [q] in [0, 1]. *)
let rank a q =
  let n = Array.length a in
  if n = 0 then 0
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

(* The highest percentile that still has at least ten samples beyond it,
   as a percentage (e.g. 99.9 for 10,000 samples). *)
let top_pct n = if n < 20 then 50.0 else 100.0 *. (1.0 -. (10.0 /. float_of_int n))

type summary = {
  n : int;
  p50 : int;
  p99 : int;
  top_pct : float;  (** highest percentile with >= 10 samples beyond it *)
  top : int;  (** the sample at [top_pct] *)
  max : int;
}

let summarize t =
  let a = sorted t in
  let n = Array.length a in
  let tp = top_pct n in
  {
    n;
    p50 = rank a 0.5;
    p99 = rank a 0.99;
    top_pct = tp;
    top = rank a (tp /. 100.0);
    max = (if n = 0 then 0 else a.(n - 1));
  }
