(** Sorted flat-array set — the shipped TNode set.

    The paper's default set is a sorted list: ordered access makes the
    maximum, the minimum, [take_top] and the min-swap cheap. This variant
    keeps the same order in an ascending [Elt.t array] instead of list
    cells, so every operation the queue runs under a node lock touches one
    contiguous block and allocates nothing in the steady state:

    - [max_elt]/[min_elt] are O(1): the last and first used slots;
    - [insert] is a binary search plus one [Array.blit];
    - [replace_min] is one shift of the elements below [e]'s position.

    Capacity doubles when full (an oversized leaf is legal, Section 3.4).
    [take_top] and [split_lower] return their elements in descending order,
    exactly as {!List_set} does, so a queue built on either set makes the
    same decisions and ends up with the same tree. *)

module Elt = Zmsq_pq.Elt

(* [data.(0 .. len-1)] ascending; slots at [len] and above hold [Elt.none]. *)
type t = { mutable data : Elt.t array; mutable len : int }

let name = "sorted"

let create () = { data = Array.make 16 Elt.none; len = 0 }

let size t = t.len
let is_empty t = t.len = 0
let max_elt t = if t.len = 0 then Elt.none else t.data.(t.len - 1)
let min_elt t = if t.len = 0 then Elt.none else t.data.(0)

let grow t =
  let bigger = Array.make (2 * Array.length t.data) Elt.none in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

(* First index in [0, hi) whose element exceeds [e]: an insert there keeps
   the order and places [e] below its equals, as the list does. *)
let upper_bound data hi e =
  let lo = ref 0 and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if data.(mid) <= e then lo := mid + 1 else hi := mid
  done;
  !lo

let insert t e =
  if t.len = Array.length t.data then grow t;
  let i = upper_bound t.data t.len e in
  Array.blit t.data i t.data (i + 1) (t.len - i);
  t.data.(i) <- e;
  t.len <- t.len + 1

let remove_max t =
  if t.len = 0 then Elt.none
  else begin
    t.len <- t.len - 1;
    let e = t.data.(t.len) in
    t.data.(t.len) <- Elt.none;
    e
  end

let remove_min t =
  if t.len = 0 then Elt.none
  else begin
    let e = t.data.(0) in
    t.len <- t.len - 1;
    Array.blit t.data 1 t.data 0 t.len;
    t.data.(t.len) <- Elt.none;
    e
  end

(* Drop [data.(0)] and put [e] at its sorted place: everything below that
   place shifts down one slot. *)
let replace_min t e =
  if t.len = 0 then invalid_arg "Sorted_set.replace_min: empty";
  let dropped = t.data.(0) in
  let i = upper_bound t.data t.len e - 1 in
  Array.blit t.data 1 t.data 0 i;
  t.data.(i) <- e;
  (dropped, t.data.(0))

(* The [n] elements from index [lo] upward, largest first; their slots are
   the caller's to clear. *)
let descending t lo n = Array.init n (fun i -> t.data.(lo + n - 1 - i))

let take_top t n =
  let n = min n t.len in
  let lo = t.len - n in
  let top = descending t lo n in
  Array.fill t.data lo n Elt.none;
  t.len <- lo;
  top

let split_lower t =
  let n = t.len / 2 in
  let lower = descending t 0 n in
  let keep = t.len - n in
  Array.blit t.data n t.data 0 keep;
  Array.fill t.data keep n Elt.none;
  t.len <- keep;
  lower

let swap_contents a b =
  let data = a.data and len = a.len in
  a.data <- b.data;
  a.len <- b.len;
  b.data <- data;
  b.len <- len

let to_list t = List.init t.len (fun i -> t.data.(i))
