(* Helpers shared by the phases: clock, process introspection, seeded
   keys, multiset fingerprints and the one-line phase result. *)

module Json = Zmsq_obs.Json

let now_ns = Zmsq_util.Timing.now_ns

(* Peak resident set ([VmHWM]) of a process, in MiB; 0 when unreadable. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l ->
            if String.starts_with ~prefix:"VmHWM:" l then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Time a set-up and return its result with [again]: called once the
   measurement is over, [again ()] runs a set-up that took under three
   seconds twice more and gives the median of the three times (a longer
   one is timed once). Repeating afterwards keeps the extra set-ups'
   garbage out of the measured window and its peak RSS. *)
let timed_setup f =
  let once () =
    let t0 = now_ns () in
    let r = f () in
    (r, float_of_int (now_ns () - t0) /. 1e9)
  in
  let r, t = once () in
  let again () = if t >= 3.0 then t else Zmsq_util.Stats.percentile [| t; snd (once ()); snd (once ()) |] 50.0 in
  (r, again)

(* Start peak-RSS accounting afresh: collect the set-up garbage, then
   reset [VmHWM] to the current RSS (Linux [clear_refs] code 5). The peak read after the timed window is then the
   memory the measured work needed, not what building its inputs did. *)
let reset_peak_rss () =
  Gc.compact ();
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Cumulative (steal, total) jiffies of all CPUs from /proc/stat: the
   time a hypervisor withheld the CPUs, to tell host interference apart
   from a slow program when reading a run. *)
let cpu_jiffies () =
  match In_channel.with_open_bin "/proc/stat" input_line with
  | exception (Sys_error _ | End_of_file) -> (0, 0)
  | l -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | "cpu" :: fields ->
          let v = List.map (fun f -> Option.value ~default:0 (int_of_string_opt f)) fields in
          let steal = match List.nth_opt v 7 with Some x -> x | None -> 0 in
          (steal, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))

let steal_between (s0, t0) (s1, t1) = ratio (s1 - s0) (t1 - t0)

(* Host interference filter. On a shared host the hypervisor can withhold
   the CPUs ("steal") for seconds at a time, and a multi-domain OCaml
   program loses more than the stolen share, because every minor
   collection waits for all domains. Measurements taken in repeated
   windows are therefore reported over the calm windows: those with at
   most [calm_steal] of the CPU time stolen or, when fewer than a third of
   the windows are calm, the least-stolen third. Each window's steal is
   recorded with the run. *)
let calm_steal = 0.02

let calm items =
  let need = max 1 ((List.length items + 2) / 3) in
  let quiet = List.filter (fun (_, s) -> s <= calm_steal) items in
  if List.length quiet >= need then List.map fst quiet
  else
    List.map fst
      (List.filteri (fun i _ -> i < need) (List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) items))

(* A 63-bit integer mixer (the splitmix64 finalizer with its constants
   cut to OCaml's int range). *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3fb5d329728ea185 in
  let x = (x lxor (x lsr 27)) * 0x01dadef4bc2dd44d in
  x lxor (x lsr 33)

(* The 20-bit priority the wire generator attaches to sequence number
   [seq]; a pure function of the seed, so the oracle can check that a
   received element is one that was sent without storing it. *)
let key_of ~seed seq = mix ((seed * 0x1e3779b97f4a7c15) + seq) land 0xFFFFF

(* Order-independent multiset fingerprint: count plus two independent
   hash sums. Two multisets with equal fingerprints are equal except with
   negligible probability, and it costs O(1) memory however many
   operations a run completes. *)
type fp = { mutable count : int; mutable h1 : int; mutable h2 : int }

let fp () = { count = 0; h1 = 0; h2 = 0 }

let fp_add f e =
  f.count <- f.count + 1;
  f.h1 <- f.h1 + mix e;
  f.h2 <- f.h2 + mix (e lxor 0x1bd1e9955bd1e995)

let fp_merge dst src =
  dst.count <- dst.count + src.count;
  dst.h1 <- dst.h1 + src.h1;
  dst.h2 <- dst.h2 + src.h2

let fp_equal a b = a.count = b.count && a.h1 = b.h1 && a.h2 = b.h2

(* What a phase process prints as its only stdout line. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * Json.t) list;
  errors : string list;
}

let emit r =
  let j =
    Json.Obj
      [
        ("correct", Json.Bool r.correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.metrics));
        ("info", Json.Obj r.info);
        ("errors", Json.Arr (List.map (fun s -> Json.Str s) r.errors));
      ]
  in
  print_string (Json.to_string j);
  print_newline ()

let ns_to_ms ns = float_of_int ns /. 1e6

(* Spans from traced phases go to [<dir>/spans-<phase>.jsonl]. *)
let write_spans ~dir ~phase ~pid bufs =
  match dir with
  | None -> ()
  | Some dir ->
      let oc = open_out (Filename.concat dir ("spans-" ^ phase ^ ".jsonl")) in
      Spans.write_events oc ~pid bufs;
      close_out oc;
      Printf.eprintf "zbench: %s kept %d spans, dropped %d past the buffer bound\n%!" phase
        (Spans.retained bufs) (Spans.dropped bufs)
