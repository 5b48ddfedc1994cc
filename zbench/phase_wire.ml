(* Wire phase: open-loop Poisson RPC load against zmsq_server as shipped
   (default 4 shards, Server.default_config), in its own process on a
   loopback ephemeral port. One generator thread drives two connections:
   a producer sending 32-element Insert batches and a consumer sending
   Extract max_n=32, 50 ms budgets. Arrivals are one Poisson process at
   the offered rate whose requests alternate insert and extract, so the
   two rates are equal and the standing backlog stays within a batch of
   its preload (independent streams would random-walk it into the
   admission high-water mark or down to empty). *)

open Common
module P = Zmsq_net.Protocol
module Elt = Zmsq_pq.Elt
module G = Opengen

(* The server as shipped, for its default configuration and level names. *)
module Srv = Zmsq_net.Server.Make (Zmsq.Shard.Default)

(* {2 The server process} *)

type server = { pid : int; err : Unix.file_descr; lines : Buffer.t; mutable reaped : bool }

(* Read the server's stderr until [pred] holds of a line or [deadline]
   passes; returns the matching line. *)
let rec read_until s ~deadline pred =
  let text = Buffer.contents s.lines in
  match List.find_opt pred (String.split_on_char '\n' text) with
  | Some l -> Some l
  | None -> (
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then None
      else
        match Unix.select [ s.err ] [] [] left with
        | [], _, _ -> None
        | _ -> (
            let b = Bytes.create 4096 in
            match Unix.read s.err b 0 4096 with
            | 0 -> List.find_opt pred (String.split_on_char '\n' (Buffer.contents s.lines))
            | k ->
                Buffer.add_subbytes s.lines b 0 k;
                read_until s ~deadline pred))

let spawn exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "--port"; "0"; "--host"; "127.0.0.1" |] Unix.stdin Unix.stderr w
  in
  Unix.close w;
  let s = { pid; err = r; lines = Buffer.create 1024; reaped = false } in
  let listening = "zmsq_server: listening on " in
  match read_until s ~deadline:(Unix.gettimeofday () +. 20.0) (String.starts_with ~prefix:listening) with
  | None -> failwith "wire: zmsq_server did not start"
  | Some l ->
      let port = Scanf.sscanf l "zmsq_server: listening on %[0-9.]:%d" (fun _ p -> p) in
      (s, port)

let reap s =
  s.reaped <- true;
  snd (Unix.waitpid [] s.pid)

let kill s =
  if not s.reaped then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap s)
  end;
  try Unix.close s.err with Unix.Unix_error _ -> ()

(* {2 Stats} *)

let stats_of s = match Json.of_string s with Ok j -> j | Error _ -> Json.Null
let int_field j k = match Json.member k j with Some v -> Option.value ~default:0 (Json.to_int_opt v) | None -> 0

let level_of j =
  match Option.bind (Json.member "level" j) Json.to_string_opt with
  | Some name -> Option.value ~default:(-1) (List.find_opt (fun l -> Srv.level_name l = name) [ 0; 1; 2; 3 ])
  | None -> -1

let stats c =
  match G.call c P.Stats ~timeout_s:10.0 with
  | Ok (P.Stats_json s) -> stats_of s
  | _ -> failwith "wire: Stats RPC failed"

(* {2 The phase} *)

(* The shipped server's per-connection inflight window: the generator
   keeps at most this many requests outstanding on each connection, so a
   stall in the server costs latency, not refusals. *)
let server_window = Srv.default_config.Srv.inflight_window

let run ~seed ~(w : Workloads.t) ~budget_s ~trace ~span_dir ~server_exe =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t_setup = now_ns () in
  let srv, port = spawn server_exe in
  Fun.protect
    ~finally:(fun () -> kill srv)
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let prod = G.connect addr and cons = G.connect addr and mon = G.connect addr in
      let seq = ref 0 in
      let batch () =
        Array.init Workloads.insert_batch (fun _ ->
            let s = !seq in
            incr seq;
            Elt.pack ~priority:(key_of ~seed s) ~payload:s)
      in
      let confirmed = ref 0 in
      let errors = ref [] in
      let err m = if List.length !errors < 10 then errors := m :: !errors in
      (* Set-up: preload the standing backlog, synchronously. *)
      while !seq < w.backlog do
        match G.call prod (P.Insert { budget_ns = 1_000_000_000; elts = batch () }) ~timeout_s:10.0 with
        | Ok (P.Inserted k) -> confirmed := !confirmed + k
        | _ -> failwith "wire: preload insert failed"
      done;
      let setup_s = float_of_int (now_ns () - t_setup) /. 1e9 in
      (* Steps alternate the two offered rates, so slow drift in the host
         affects both alike; a traced run adds one traced step per rate. *)
      let low = ("low", Workloads.low_rps, false) and high = ("high", Workloads.high_rps, false) in
      let as_traced (label, rate, _) = (label, rate, true) in
      let pairs = max 1 (int_of_float (budget_s /. 2.0)) in
      let steps =
        List.concat
          (List.init pairs (fun _ -> if trace then [ low; high; as_traced low; as_traced high ] else [ low; high ]))
      in
      let dur = budget_s /. float_of_int (List.length steps) in
      let scheds =
        List.mapi
          (fun k (_, rate, _) -> G.schedule ~seed:(mix ((seed * 131) + 404 + k)) ~rate ~duration_s:dur)
          steps
      in
      let max_seq =
        List.fold_left (fun a s -> a + (((Array.length s + 1) / 2) * Workloads.insert_batch)) !seq scheds
      in
      let seen = Bytes.make max_seq '\000' in
      let received = ref 0 in
      let refusals = Hashtbl.create 8 in
      let extracts_ok = ref 0 in
      let on_resp i resp =
        match resp with
        | P.Inserted k when i land 1 = 0 ->
            confirmed := !confirmed + k;
            G.ok
        | P.Elements a when i land 1 = 1 ->
            Array.iter
              (fun e ->
                let s = Elt.payload e in
                if s >= !seq || Elt.priority e <> key_of ~seed s then err "wire: received an element that was never sent"
                else if Bytes.get seen s <> '\000' then err "wire: element received twice"
                else Bytes.set seen s '\001')
              a;
            received := !received + Array.length a;
            incr extracts_ok;
            G.ok
        | P.Error (code, _) ->
            let k = P.err_code_name code in
            Hashtbl.replace refusals k (1 + Option.value ~default:0 (Hashtbl.find_opt refusals k));
            G.refused
        | r ->
            err ("wire: unexpected response " ^ P.resp_name r);
            G.transport
      in
      let build i =
        if i land 1 = 0 then P.Insert { budget_ns = Workloads.budget_ns; elts = batch () }
        else P.Extract { budget_ns = Workloads.budget_ns; max_n = Workloads.extract_max }
      in
      let samples = ref [] in
      let on_stats t s = samples := (t, stats_of s) :: !samples in
      let s0 = stats mon in
      let results =
        List.map2
          (fun (label, rate, traced) sched ->
            let j0 = cpu_jiffies () in
            let st =
              G.run ~conns:[| prod; cons |] ~route:(fun i -> i land 1) ~sched ~start:(now_ns () + 1_000_000)
                ~build ~on_resp ~detail:traced ~window:server_window
                ?monitor:(if traced then Some mon else None)
                ~on_stats ~drain_ns:2_000_000_000 ()
            in
            (label, rate, traced, st, steal_between j0 (cpu_jiffies ())))
          steps scheds
      in
      let s1 = stats mon in
      let rss = vmhwm_mb (string_of_int srv.pid) in
      (* Conservation against the server's own accounting. *)
      if int_field s1 "elts_applied" <> !confirmed then err "wire: confirmed inserts differ from elts_applied";
      let transport_failures =
        List.exists (fun (_, _, _, st, _) -> Array.exists (fun x -> x >= G.transport) st.G.status) results
      in
      if (not transport_failures) && int_field s1 "elts_extracted" <> !received then
        err "wire: received elements differ from elts_extracted";
      List.iter G.close [ prod; cons; mon ];
      (* Graceful drain: SIGTERM, then the final stats line. *)
      Unix.kill srv.pid Sys.sigterm;
      let final_prefix = "zmsq_server: final " in
      let np = String.length final_prefix in
      (match read_until srv ~deadline:(Unix.gettimeofday () +. 30.0) (String.starts_with ~prefix:final_prefix) with
      | None -> err "wire: no final stats line after SIGTERM"
      | Some l ->
          let j = stats_of (String.sub l np (String.length l - np)) in
          if int_field j "elts_applied" <> int_field j "elts_extracted" + int_field j "elts_drained_shutdown" then
            err "wire: elts_applied <> elts_extracted + elts_drained_shutdown after drain";
          if int_field j "live_handles" <> 0 then err "wire: live_handles <> 0 after drain");
      if reap srv <> Unix.WEXITED 0 then err "wire: zmsq_server did not exit cleanly";
      (* Metrics. *)
      let attempted = List.fold_left (fun a (_, _, _, st, _) -> a + st.G.n) 0 results in
      let failed =
        List.fold_left
          (fun a (_, _, _, st, _) -> a + Array.fold_left (fun a x -> if x <> G.ok then a + 1 else a) 0 st.G.status)
          0 results
      in
      (* Latency from the intended send time; a refused or failed request
         counts as missing every latency limit. *)
      let lat ?(pick = fun _ -> true) ?(from = fun st i -> st.G.intended.(i)) sel =
        let s = Samples.create () in
        List.iteri
          (fun k (label, _, traced, st, _) ->
            if sel k label traced then
              for i = 0 to st.G.n - 1 do
                if pick i then
                  Samples.add s (if st.G.status.(i) = G.ok then st.G.recv.(i) - from st i else max_int)
              done)
          results;
        Samples.summarize s
      in
      let ms v = if v = max_int then infinity else ns_to_ms v in
      let step_summary st =
        let s = Samples.create () in
        for i = 0 to st.G.n - 1 do
          Samples.add s (if st.G.status.(i) = G.ok then st.G.recv.(i) - st.G.intended.(i) else max_int)
        done;
        Samples.summarize s
      in
      (* Untraced steps at one rate, pooled; the end-to-end medians use
         the calm ones only (see Common.calm). *)
      let untraced ?(only_calm = false) l =
        let ks =
          calm
            (List.concat
               (List.mapi
                  (fun k (label, _, traced, _, steal) -> if label = l && not traced then [ (k, steal) ] else [])
                  results))
        in
        lat (fun k label traced -> label = l && (not traced) && ((not only_calm) || List.mem k ks))
      in
      let lo = untraced "low" and hi = untraced "high" in
      let e2e =
        if trace then []
        else
          [
            ("rpc_p50_ms.low", ms (untraced ~only_calm:true "low").p50);
            ("rpc_p50_ms.high", ms (untraced ~only_calm:true "high").p50);
          ]
      in
      let counts =
        List.mapi
          (fun k (label, rate, traced, st, steal) ->
            let s = step_summary st in
            ( Printf.sprintf "%d.%s%s" k label (if traced then ".traced" else ""),
              Json.Obj
                [
                  ("offered_rps", Json.Float rate);
                  ("steal", Json.Float steal);
                  ("requests", Json.Int st.G.n);
                  ("samples", Json.Int s.n);
                  ("p50_ms", Json.Float (ms s.p50));
                  ("p99_ms", Json.Float (ms s.p99));
                  ("top_pct", Json.Float s.top_pct);
                  ("top_ms", Json.Float (ms s.top));
                  ("max_ms", Json.Float (ms s.max));
                ] ))
          results
      in
      (* Between two stamps of every request, over all steps. *)
      let gap a b =
        let s = Samples.create () in
        List.iter
          (fun (_, _, _, st, _) ->
            for i = 0 to st.G.n - 1 do
              Samples.add s ((b st).(i) - (a st).(i))
            done)
          results;
        Samples.summarize s
      in
      (* The generator's own lateness: due to noticed. A request held back
         by a full connection window waits after that (noticed to sent);
         that wait is the server's backpressure and counts on its side. *)
      let late = gap (fun st -> st.G.intended) (fun st -> st.G.noticed) in
      let held = gap (fun st -> st.G.noticed) (fun st -> st.G.sent) in
      let per_layer =
        if not trace then []
        else begin
          let traced_only _ _ traced = traced in
          let svc = lat ~from:(fun st i -> st.G.noticed.(i)) traced_only in
          let ins = lat ~pick:(fun i -> i land 1 = 0) traced_only in
          let ext = lat ~pick:(fun i -> i land 1 = 1) traced_only in
          let lo_t = lat (fun _ l t -> l = "low" && t) in
          let enc = Samples.create () and dec = Samples.create () in
          let buf = Spans.create ~tid:1 ~cap:30_000 in
          let op = ref 0 in
          List.iter
            (fun (_, _, traced, st, _) ->
              if traced then
                for i = 0 to st.G.n - 1 do
                  incr op;
                  if st.G.status.(i) = G.ok then begin
                    Samples.add enc (st.G.written.(i) - st.G.encoded.(i));
                    Samples.add dec (st.G.dec_end.(i) - st.G.dec_start.(i));
                    let sp name a b parent = ignore (Spans.add buf ~name ~start:a ~stop:b ~parent ~op:!op) in
                    let root =
                      Spans.add buf
                        ~name:(if i land 1 = 0 then Spans.n_rpc_insert else Spans.n_rpc_extract)
                        ~start:st.G.intended.(i) ~stop:st.G.dec_end.(i) ~parent:(-1) ~op:!op
                    in
                    if root >= 0 then begin
                      sp Spans.n_gen_late st.G.intended.(i) st.G.noticed.(i) root;
                      sp Spans.n_window st.G.noticed.(i) st.G.sent.(i) root;
                      sp Spans.n_encode st.G.encoded.(i) st.G.written.(i) root;
                      sp Spans.n_write st.G.written.(i) st.G.flushed.(i) root;
                      sp Spans.n_wait st.G.flushed.(i) st.G.recv.(i) root;
                      sp Spans.n_decode st.G.dec_start.(i) st.G.dec_end.(i) root
                    end
                  end
                done)
            results;
          write_spans ~dir:span_dir ~phase:"wire" ~pid:3 [ buf ];
          let traced_rpcs =
            List.fold_left (fun a (_, _, traced, st, _) -> if traced then a + st.G.n else a) 0 results
          in
          let smp = List.rev !samples in
          let fmax f = List.fold_left (fun a (_, j) -> max a (f j)) 0 smp in
          let backlog j = int_field j "queue_len" + int_field j "queue_buffered" in
          (* Least-squares slope of the sampled backlog, elements per second. *)
          let slope =
            let n = float_of_int (List.length smp) in
            if n < 2.0 then 0.0
            else
              let xs = List.map (fun (t, _) -> float_of_int t /. 1e9) smp in
              let ys = List.map (fun (_, j) -> float_of_int (backlog j)) smp in
              let mx = List.fold_left ( +. ) 0.0 xs /. n and my = List.fold_left ( +. ) 0.0 ys /. n in
              let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
              let sxx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.0)) 0.0 xs in
              if sxx = 0.0 then 0.0 else sxy /. sxx
          in
          let per10k k = 1e4 *. ratio (int_field s1 k - int_field s0 k) attempted in
          let p50 s = float_of_int (Samples.summarize s).p50 in
          [
            ("rpc_p99_ms.low", ms lo.p99);
            ("rpc_p99_ms.high", ms hi.p99);
            ("net.encode_ns.p50", p50 enc);
            ("net.decode_ns.p50", p50 dec);
            ("net.service_ms.p50", ms svc.p50);
            ("net.service_ms.p99", ms svc.p99);
            ("net.insert_rpc_ms.p99", ms ins.p99);
            ("net.extract_rpc_ms.p99", ms ext.p99);
            ("net.extract_fill_pct", 100.0 *. ratio !received (!extracts_ok * Workloads.extract_max));
            ("server.inflight_max", float_of_int (fmax (fun j -> int_field j "in_flight")));
            ("server.backlog_slope_eps", slope);
            ("server.level_max", float_of_int (fmax level_of));
            ("server.throttled_per_10k", per10k "throttled");
            ("server.shed_per_10k", per10k "shed");
            ("server.rejected_per_10k", per10k "rejected");
            ("server.deadline_expired_per_10k", per10k "deadline_expired");
            ("server.peak_rss_mb", rss);
            ("gen.late_ms.p99", ms late.p99);
            ("gen.late_ms.max", ms late.max);
            ("net.window_ms.p99", ms held.p99);
            ("trace.overhead_pct.wire", 100.0 *. ((float_of_int lo_t.p50 /. float_of_int lo.p50) -. 1.0));
            ("net.traced_rpcs", float_of_int traced_rpcs);
          ]
        end
      in
      let errors = List.rev !errors in
      {
        correct = errors = [];
        attempted;
        failed;
        metrics = [ ("setup_s", setup_s) ] @ e2e @ per_layer @ [ ("peak_rss_mb", rss) ];
        info =
          [
            ("backlog", Json.Int w.backlog);
            ("offered_rps", Json.Obj [ ("low", Json.Float Workloads.low_rps); ("high", Json.Float Workloads.high_rps) ]);
            ("steps", Json.Obj counts);
            ("gen_late_ms", Json.Obj [ ("p50", Json.Float (ms late.p50)); ("p99", Json.Float (ms late.p99)); ("max", Json.Float (ms late.max)) ]);
            ("window_wait_ms", Json.Obj [ ("p50", Json.Float (ms held.p50)); ("p99", Json.Float (ms held.p99)); ("max", Json.Float (ms held.max)) ]);
            ("refusals", Json.Obj (Hashtbl.fold (fun k v a -> (k, Json.Int v) :: a) refusals []));
            ("elts_sent", Json.Int !seq);
            ("elts_received", Json.Int !received);
          ];
        errors;
      })
