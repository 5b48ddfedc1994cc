(* A bench-local log-linear histogram for the per-call timings of the
   traced in-process phases, where keeping every raw sample would cost
   more memory than the queue under test. Values below 2^sub_bits are
   exact; above, each power of two is split into 2^sub_bits buckets, so
   any reported quantile is within 1/64 (1.6%) of a recorded value. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let nbuckets = (63 - sub_bits + 1) * sub

type t = { counts : int array; mutable total : int; mutable max : int }

let create () = { counts = Array.make nbuckets 0; total = 0; max = 0 }

let rec msb v k = if v <= 1 then k else msb (v lsr 1) (k + 1)

let index v =
  if v < sub then v
  else
    let k = msb v 0 in
    ((k - sub_bits + 1) * sub) + ((v lsr (k - sub_bits)) - sub)

(* Midpoint of bucket [i]. *)
let value_of i =
  if i < sub then i
  else
    let k = (i / sub) + sub_bits - 1 in
    let j = i mod sub in
    let w = 1 lsl (k - sub_bits) in
    ((sub + j) * w) + (w / 2)

let add t v =
  let v = max 0 v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  if v > t.max then t.max <- v

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total;
  if src.max > dst.max then dst.max <- src.max

(* Nearest-rank quantile, [q] in [0, 1]. *)
let quantile t q =
  if t.total = 0 then 0
  else
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
    let rec go i acc =
      if i >= nbuckets then t.max
      else
        let acc = acc + t.counts.(i) in
        if acc >= target then min (value_of i) t.max else go (i + 1) acc
    in
    go 0 0
