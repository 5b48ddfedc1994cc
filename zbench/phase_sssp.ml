(* SSSP phase: Sssp_parallel.run over Zmsq.Default at Params.default with
   two worker domains, on a seeded Barabasi-Albert graph. The only phase
   where relaxation quality costs wall time: extra pops are wasted work. *)

open Common
module Q = Zmsq.Default
module Intf = Zmsq_pq.Intf
module Sp = Zmsq_graph.Sssp_parallel

let threads = 2

(* Per-handle (= per-domain) trace state of the wrapping instance. *)
type rec_ = {
  buf : Spans.t;
  ins : Hist.t;
  ext : Hist.t;
  mutable queue_ns : int;  (** summed duration of this domain's queue calls *)
  mutable reg_ns : int;
  mutable unreg_ns : int;
  worker : bool;  (** false for the solver's seeding handle (main domain) *)
}

(* An Intf.INSTANCE that times every queue call from outside and records
   one span per call, parented on the worker's span. *)
let traced_instance ~registry ~lock ~main ~cap q =
  let module T = struct
    type t = Q.t
    type handle = { h : Q.handle; r : rec_; root : int; mutable seq : int }

    let register q =
      let h = Q.register q in
      let now = now_ns () in
      Mutex.lock lock;
      let tid = List.length !registry + 1 in
      let r =
        {
          buf = Spans.create ~tid ~cap;
          ins = Hist.create ();
          ext = Hist.create ();
          queue_ns = 0;
          reg_ns = now;
          unreg_ns = now;
          worker = not (Domain.self () = main);
        }
      in
      registry := r :: !registry;
      Mutex.unlock lock;
      let root = Spans.add r.buf ~name:Spans.n_sssp_worker ~start:now ~stop:now ~parent:(-1) ~op:0 in
      { h; r; root; seq = 0 }

    let unregister t =
      Q.unregister t.h;
      let now = now_ns () in
      t.r.unreg_ns <- now;
      Spans.set_stop t.r.buf t.root now

    let note t name hist t0 t1 =
      let d = t1 - t0 in
      Hist.add hist d;
      t.r.queue_ns <- t.r.queue_ns + d;
      t.seq <- t.seq + 1;
      ignore (Spans.add t.r.buf ~name ~start:t0 ~stop:t1 ~parent:t.root ~op:t.seq)

    let insert t e =
      let t0 = now_ns () in
      Q.insert t.h e;
      note t Spans.n_insert t.r.ins t0 (now_ns ())

    let extract t =
      let t0 = now_ns () in
      let e = Q.extract t.h in
      let t1 = now_ns () in
      note t (if Zmsq_pq.Elt.is_none e then Spans.n_extract_empty else Spans.n_extract) t.r.ext t0 t1;
      e

    let exact_emptiness = Q.exact_emptiness
    let length = Q.length
    let name = "traced " ^ Q.name
  end in
  Intf.pack (module T) q

type solve = { wall : float; st : Sp.stats; ok : bool; steal : float }

let run ~seed ~(w : Workloads.t) ~budget_s ~trace ~span_dir =
  (* Set-up: the graph and the sequential oracle. *)
  let source = 0 in
  let (graph, oracle), setup_again =
    timed_setup (fun () ->
        let rng = Zmsq_util.Rng.create ~seed:(mix (seed + 101)) () in
        let graph = Zmsq_graph.Gen.barabasi_albert rng ~n:w.graph_n ~m:w.graph_m ~max_weight:100 in
        (graph, Zmsq_graph.Dijkstra.dijkstra graph ~source))
  in
  let reached =
    Array.fold_left (fun a d -> if d < Zmsq_graph.Dijkstra.infinity_dist then a + 1 else a) 0 oracle
  in
  let solve inst_of =
    let q = Q.create () in
    let j0 = cpu_jiffies () in
    let dist, st = Sp.run (inst_of q) ~graph ~source ~threads in
    let steal = steal_between j0 (cpu_jiffies ()) in
    (* The oracle check of Sp.check_against_dijkstra, against the oracle
       computed once in set-up instead of once per solve. *)
    { wall = st.Sp.wall_seconds; st; ok = dist = oracle; steal }
  in
  let untraced q = Intf.pack (module Q) q in
  (* Solve at least once, then again while another solve is expected to
     end within the budget. *)
  let repeat inst_of budget =
    let stop = now_ns () + int_of_float (budget *. 1e9) in
    let rec go acc =
      let s = solve inst_of in
      if now_ns () + int_of_float (s.wall *. 1e9) > stop then List.rev (s :: acc) else go (s :: acc)
    in
    go []
  in
  reset_peak_rss ();
  let plain = repeat untraced (if trace then budget_s /. 2.0 else budget_s) in
  let peak_rss = vmhwm_mb "self" in
  let registry = ref [] and lock = Mutex.create () and main = Domain.self () in
  (* Only the first traced solve keeps its spans; every traced solve
     feeds the aggregates. *)
  let solves = ref 0 in
  let traced_q q =
    incr solves;
    traced_instance ~registry ~lock ~main ~cap:(if !solves = 1 then 10_000 else 0) q
  in
  let traced = if trace then repeat traced_q (budget_s /. 2.0) else [] in
  let all = plain @ traced in
  let calls s = s.st.Sp.pops + s.st.Sp.empty_pops + s.st.Sp.relaxations + 1 in
  let attempted = List.fold_left (fun a s -> a + calls s) 0 all in
  let ok = List.for_all (fun s -> s.ok) all in
  let med f l = Zmsq_util.Stats.percentile (Array.of_list (calm (List.map (fun s -> (f s, s.steal)) l))) 50.0 in
  let solve_s = med (fun s -> s.wall) plain in
  let ppv s = ratio s.st.Sp.pops reached in
  let setup_s = setup_again () in
  let metrics =
    [ ("setup_s", setup_s); ("solve_s", solve_s); ("pops_per_vertex", med ppv plain) ]
  in
  let per_layer =
    if not trace then []
    else begin
      let sum f = List.fold_left (fun a s -> a + f s.st) 0 traced in
      let pops = sum (fun st -> st.Sp.pops) and empty = sum (fun st -> st.Sp.empty_pops) in
      let workers = List.filter (fun r -> r.worker) !registry in
      let busy = List.fold_left (fun a r -> a + (r.unreg_ns - r.reg_ns)) 0 workers in
      let inq = List.fold_left (fun a r -> a + r.queue_ns) 0 workers in
      let bufs = List.map (fun r -> r.buf) !registry in
      write_spans ~dir:span_dir ~phase:"sssp" ~pid:1 bufs;
      [
        ("core.extract_empty_pct", 100.0 *. ratio empty (pops + empty));
        ("graph.stale_pop_pct", 100.0 *. ratio (sum (fun st -> st.Sp.stale)) pops);
        ("graph.app_self_pct", 100.0 *. ratio (busy - inq) busy);
        ("trace.overhead_pct.sssp", 100.0 *. ((med (fun s -> s.wall) traced /. solve_s) -. 1.0));
        ("sssp.peak_rss_mb", peak_rss);
      ]
    end
  in
  {
    correct = ok;
    attempted;
    failed = 0;
    metrics = metrics @ per_layer @ [ ("peak_rss_mb", peak_rss) ];
    info =
      [
        ("vertices", Json.Int w.graph_n);
        ("edges", Json.Int (Zmsq_graph.Csr.n_edges graph));
        ("reached", Json.Int reached);
        ("solves", Json.Int (List.length plain));
        ("traced_solves", Json.Int (List.length traced));
        ("solve_walls_s", Json.Arr (List.map (fun s -> Json.Float s.wall) plain));
        ("solve_steal", Json.Arr (List.map (fun s -> Json.Float s.steal) plain));
      ];
    errors = (if ok then [] else [ "sssp: distances differ from Dijkstra's" ]);
  }
