(* Mixed phase: the paper's Fig. 5 microbenchmark. Two domains in a
   closed loop, 50/50 insert/extract, uniform 20-bit keys, on a
   Zmsq.Default queue preloaded before the timed window. Per-op cost of
   sets, tree, trylocks, hazard pointers, allocation and GC dominates. *)

open Common
module Q = Zmsq.Default
module Elt = Zmsq_pq.Elt

let domains = 2
let key_mask = (1 lsl 20) - 1

(* Payloads are unique per inserted element: [block] ids per domain and
   window, after the preload's ids. *)
let block = 1 lsl 22

type tally = {
  ops : int;
  inserts : int;
  extracts : int;
  ins : fp;
  ext : fp;
  t_end : int;
  buf : Spans.t option;
  hi : Hist.t;
  he : Hist.t;
}

let window_mops (t0, ts, _) =
  let ops = List.fold_left (fun a t -> a + t.ops) 0 ts in
  let t_end = List.fold_left (fun a t -> max a t.t_end) t0 ts in
  float_of_int ops /. (float_of_int (t_end - t0) /. 1e3)

(* One timed window of [secs] on [q]; returns its tallies and start time. *)
let window q ~seed ~index ~first_id ~secs ~traced =
  let ready = Atomic.make 0 and go = Atomic.make false and stop = Atomic.make false in
  let worker d () =
    let h = Q.register q in
    let rng = Zmsq_util.Rng.create ~seed:(mix ((seed * 7919) + (index * 31) + d)) () in
    let ins = fp () and ext = fp () in
    let hi = Hist.create () and he = Hist.create () in
    let buf = if traced then Some (Spans.create ~tid:((index * domains) + d + 1) ~cap:5_000) else None in
    let next = ref (first_id + (d * block)) in
    let ops = ref 0 and inserts = ref 0 in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let root =
      match buf with
      | Some b ->
          let now = now_ns () in
          Spans.add b ~name:Spans.n_mixed_worker ~start:now ~stop:now ~parent:(-1) ~op:0
      | None -> -1
    in
    while not (Atomic.get stop) do
      for _ = 1 to 64 do
        let r = Zmsq_util.Rng.bits rng in
        if r land 1 = 0 then begin
          let e = Elt.pack ~priority:((r lsr 1) land key_mask) ~payload:!next in
          incr next;
          incr inserts;
          fp_add ins e;
          match buf with
          | None -> Q.insert h e
          | Some b ->
              let t0 = now_ns () in
              Q.insert h e;
              let t1 = now_ns () in
              Hist.add hi (t1 - t0);
              ignore (Spans.add b ~name:Spans.n_insert ~start:t0 ~stop:t1 ~parent:root ~op:!ops)
        end
        else begin
          let e =
            match buf with
            | None -> Q.extract h
            | Some b ->
                let t0 = now_ns () in
                let e = Q.extract h in
                let t1 = now_ns () in
                Hist.add he (t1 - t0);
                let name = if Elt.is_none e then Spans.n_extract_empty else Spans.n_extract in
                ignore (Spans.add b ~name ~start:t0 ~stop:t1 ~parent:root ~op:!ops);
                e
          in
          if not (Elt.is_none e) then fp_add ext e
        end;
        incr ops
      done
    done;
    let t_end = now_ns () in
    (match buf with Some b -> Spans.set_stop b root t_end | None -> ());
    Q.unregister h;
    { ops = !ops; inserts = !inserts; extracts = !ops - !inserts; ins; ext; t_end; buf; hi; he }
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  let t0 = now_ns () in
  let j0 = cpu_jiffies () in
  Atomic.set go true;
  Unix.sleepf secs;
  Atomic.set stop true;
  let ts = List.map Domain.join ds in
  (t0, ts, steal_between j0 (cpu_jiffies ()))

(* Single-domain insert+extract pairs for [secs]; ns per pair. *)
let pairs_ns ~secs ~insert ~extract ~rng =
  let stop = now_ns () + int_of_float (secs *. 1e9) in
  let t0 = now_ns () in
  let n = ref 0 in
  while now_ns () < stop do
    for _ = 1 to 256 do
      insert (Elt.pack ~priority:(Zmsq_util.Rng.int rng (key_mask + 1)) ~payload:!n);
      ignore (extract ());
      incr n
    done
  done;
  float_of_int (now_ns () - t0) /. float_of_int !n

let run ~seed ~(w : Workloads.t) ~budget_s ~trace ~span_dir =
  (* Set-up: create and preload the queue. *)
  let (q, h, inserted), setup_again =
    timed_setup (fun () ->
        let q = Q.create () in
        let h = Q.register q in
        let rng = Zmsq_util.Rng.create ~seed:(mix (seed + 202)) () in
        let inserted = fp () in
        for i = 0 to w.preload - 1 do
          let e = Elt.pack ~priority:(Zmsq_util.Rng.int rng (key_mask + 1)) ~payload:i in
          fp_add inserted e;
          Q.insert h e
        done;
        (q, h, inserted))
  in
  let removed = fp () in
  (* Timed windows; a traced run alternates untraced and traced ones. *)
  (* Short windows, reported as their median, so that a burst of host
     interference spoils a few windows rather than the run. *)
  let nwin = max 4 (2 * int_of_float (budget_s /. 1.0)) in
  let secs = budget_s /. float_of_int nwin in
  reset_peak_rss ();
  let c0 = Q.Debug.counters q and hp0 = Q.Debug.hazard_domain_stats q in
  let g0 = Gc.quick_stat () in
  let wins =
    List.init nwin (fun i ->
        let traced = trace && i land 1 = 1 in
        let first_id = w.preload + (i * domains * block) in
        (traced, window q ~seed ~index:i ~first_id ~secs ~traced))
  in
  let g1 = Gc.quick_stat () in
  let peak_rss = vmhwm_mb "self" in
  let c1 = Q.Debug.counters q and hp1 = Q.Debug.hazard_domain_stats q in
  List.iter
    (fun (_, (_, ts, _)) ->
      List.iter
        (fun t ->
          fp_merge inserted t.ins;
          fp_merge removed t.ext)
        ts)
    wins;
  let tallies = List.concat_map (fun (_, (_, ts, _)) -> ts) wins in
  let total f = List.fold_left (fun a t -> a + f t) 0 tallies in
  let ops = total (fun t -> t.ops) in
  let inserts = total (fun t -> t.inserts) and extracts = total (fun t -> t.extracts) in
  let mops_of traced =
    Zmsq_util.Stats.percentile
      (Array.of_list
         (calm
            (List.filter_map
               (fun (tr, ((_, _, steal) as win)) -> if tr = traced then Some (window_mops win, steal) else None)
               wins)))
      50.0
  in
  let mops = mops_of false in
  (* Quiescent checks: the invariant, then the per-layer shape. *)
  let invariant = Q.Debug.check_invariant q in
  let leaf_level = Q.Debug.leaf_level q in
  let set_cv =
    let c = List.filter (fun n -> n > 0) (Array.to_list (Q.Debug.node_counts q)) in
    let n = float_of_int (List.length c) in
    let mean = float_of_int (List.fold_left ( + ) 0 c) /. n in
    let var = List.fold_left (fun a x -> a +. ((float_of_int x -. mean) ** 2.0)) 0.0 c /. n in
    sqrt var /. mean
  in
  let per_layer =
    if not trace then []
    else begin
      let prng = Zmsq_util.Rng.create ~seed:(mix (seed + 303)) () in
      let next = ref (w.preload + (nwin * domains * block)) in
      let pair_ns =
        pairs_ns ~secs:0.3 ~rng:prng
          ~insert:(fun e ->
            let e = Elt.pack ~priority:(Elt.priority e) ~payload:!next in
            incr next;
            fp_add inserted e;
            Q.insert h e)
          ~extract:(fun () ->
            let e = Q.extract h in
            if not (Elt.is_none e) then fp_add removed e;
            e)
      in
      (* The roofline: a sequential binary heap holding as many elements. *)
      let heap = Zmsq_pq.Binary_heap.create () in
      let hrng = Zmsq_util.Rng.create ~seed:(mix (seed + 202)) () in
      for i = 0 to w.preload - 1 do
        Zmsq_pq.Binary_heap.insert heap
          (Elt.pack ~priority:(Zmsq_util.Rng.int hrng (key_mask + 1)) ~payload:i)
      done;
      let heap_ns =
        pairs_ns ~secs:0.3 ~rng:prng
          ~insert:(Zmsq_pq.Binary_heap.insert heap)
          ~extract:(fun () -> Zmsq_pq.Binary_heap.extract_max heap)
      in
      let hi = Hist.create () and he = Hist.create () in
      List.iter
        (fun t ->
          Hist.merge_into hi t.hi;
          Hist.merge_into he t.he)
        tallies;
      let q_ns h p = float_of_int (Hist.quantile h p) in
      let per_k n d = 1000.0 *. ratio n d in
      let hp_scans, hp_rec =
        match (hp0, hp1) with
        | Some (r0, rc0, s0), Some (r1, rc1, s1) ->
            (per_k (s1 - s0) ops, 100.0 *. ratio (rc1 - rc0) (r1 - r0))
        | _ -> (0.0, 0.0)
      in
      write_spans ~dir:span_dir ~phase:"mixed" ~pid:2 (List.filter_map (fun t -> t.buf) tallies);
      [
        ("core.insert_ns.p50", q_ns hi 0.5);
        ("core.insert_ns.p99", q_ns hi 0.99);
        ("core.extract_ns.p50", q_ns he 0.5);
        ("core.extract_ns.p99", q_ns he 0.99);
        ("core.insert_retries_per_kop", per_k (c1.insert_retries - c0.insert_retries) ops);
        ("core.refills_per_kextract", per_k (c1.refills - c0.refills) extracts);
        ("core.splits_per_kinsert", per_k (c1.splits - c0.splits) inserts);
        ("core.forced_inserts_pct", 100.0 *. ratio (c1.forced_inserts - c0.forced_inserts) inserts);
        ("core.swap_downs_per_kextract", per_k (c1.swap_downs - c0.swap_downs) extracts);
        ("core.leaf_level", float_of_int leaf_level);
        ("core.set_len_cv", set_cv);
        ("core.pair_ns.1d", pair_ns);
        ("ref.heap_pair_ns", heap_ns);
        ("hp.scans_per_kop", hp_scans);
        ("hp.recycled_pct", hp_rec);
        ("gc.minor_words_per_op", (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int ops);
        ("gc.minor_per_kop", per_k (g1.Gc.minor_collections - g0.Gc.minor_collections) ops);
        ("gc.major_per_kop", per_k (g1.Gc.major_collections - g0.Gc.major_collections) ops);
        ("trace.overhead_pct.mixed", 100.0 *. ((mops /. mops_of true) -. 1.0));
        ("mixed.peak_rss_mb", peak_rss);
      ]
    end
  in
  (* Drain, then the conservation oracle: every inserted element was
     extracted exactly once (in a window, a pair, or the final drain). *)
  let rec drain () =
    let e = Q.extract h in
    if not (Elt.is_none e) then begin
      fp_add removed e;
      drain ()
    end
  in
  drain ();
  let conserved = fp_equal inserted removed && Q.is_empty q in
  Q.unregister h;
  let setup_s = setup_again () in
  let errors =
    (if invariant then [] else [ "mixed: Debug.check_invariant failed at quiescence" ])
    @ if conserved then [] else [ "mixed: extracted + drained multiset differs from inserted" ]
  in
  {
    correct = errors = [];
    attempted = ops;
    failed = 0;
    metrics = [ ("setup_s", setup_s); ("mops", mops) ] @ per_layer @ [ ("peak_rss_mb", peak_rss) ];
    info =
      [
        ("preload", Json.Int w.preload);
        ("window_s", Json.Float secs);
        ("ops", Json.Int ops);
        ("window_mops", Json.Arr (List.map (fun (_, win) -> Json.Float (window_mops win)) wins));
        ("window_steal", Json.Arr (List.map (fun (_, (_, _, st)) -> Json.Float st) wins));
      ];
    errors;
  }
