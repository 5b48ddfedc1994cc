(* In-memory span recording for traced runs.

   Each recording thread owns one buffer (no sharing, no locks). A span
   is (name, start, end, parent, op id); ids are unique per process
   because they carry the buffer's thread id in their high bits. Spans
   stay in memory until the phase ends, then are written out as Chrome
   trace-event lines that the suite merges into one trace file. Buffers
   are bounded: beyond [cap] spans a buffer only counts what it dropped,
   so a long traced run cannot exhaust memory. Aggregates that the
   metrics need (counts, summed durations, histograms) are kept by the
   callers at the same boundaries and cover every call, not only the
   retained spans. *)

let names =
  [|
    "sssp.worker";
    "q.insert";
    "q.extract";
    "q.extract_empty";
    "mixed.worker";
    "rpc.insert";
    "rpc.extract";
    "gen.late";
    "net.window";
    "net.encode";
    "net.write";
    "net.wait";
    "net.decode";
  |]

let n_sssp_worker = 0
let n_insert = 1
let n_extract = 2
let n_extract_empty = 3
let n_mixed_worker = 4
let n_rpc_insert = 5
let n_rpc_extract = 6
let n_gen_late = 7
let n_window = 8
let n_encode = 9
let n_write = 10
let n_wait = 11
let n_decode = 12

type t = {
  tid : int;
  cap : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  op : int array;
  mutable n : int;
  mutable dropped : int;
}

let create ~tid ~cap =
  {
    tid;
    cap;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    op = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

let id_bits = 32

(* Record a span; returns its id, or -1 when the buffer is full. *)
let add t ~name ~start ~stop ~parent ~op =
  if t.n >= t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.parent.(i) <- parent;
    t.op.(i) <- op;
    t.n <- i + 1;
    (t.tid lsl id_bits) lor i
  end

(* Close a span opened with [stop = start] once its children are known. *)
let set_stop t id stop = if id >= 0 then t.stop.(id land ((1 lsl id_bits) - 1)) <- stop

let dropped bufs = List.fold_left (fun a b -> a + b.dropped) 0 bufs
let retained bufs = List.fold_left (fun a b -> a + b.n) 0 bufs

(* One Chrome trace event per line ("X" complete events, microseconds). *)
let write_events oc ~pid bufs =
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}\n"
          names.(b.name.(i)) pid b.tid
          (float_of_int b.start.(i) /. 1e3)
          (float_of_int (b.stop.(i) - b.start.(i)) /. 1e3)
          ((b.tid lsl id_bits) lor i)
          b.parent.(i) b.op.(i)
      done)
    bufs
