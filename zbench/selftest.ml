(* The benchmark's own tests (dune build @zbench/selftest):
   1. seeded Poisson arrivals are reproducible, and the bench-local
      histogram keeps its error bound;
   2. the coordinated-omission guard: against a stub endpoint that stalls
      once, requests scheduled during the stall carry it in their latency,
      also when the per-connection window holds them back in the generator,
      and that wait is not counted as the generator's own lateness;
   3. a tiny-scale run emits every metric BENCHMARK.json names, with its
      unit, untraced and traced.

   usage: selftest.exe MAIN_EXE SERVER_EXE BENCHMARK_JSON *)

open Zbench
module Json = Zmsq_obs.Json
module P = Zmsq_net.Protocol
module F = Zmsq_net.Frame
module G = Opengen

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let poisson () =
  let a = G.schedule ~seed:5 ~rate:1000.0 ~duration_s:2.0 in
  let b = G.schedule ~seed:5 ~rate:1000.0 ~duration_s:2.0 in
  let c = G.schedule ~seed:6 ~rate:1000.0 ~duration_s:2.0 in
  check "poisson: same seed, same arrivals" (a = b);
  check "poisson: another seed, other arrivals" (a <> c);
  let n = Array.length a in
  (* 2000 expected; 5 sigma is about 224. *)
  check (Printf.sprintf "poisson: %d arrivals in 2 s at 1000/s" n) (abs (n - 2000) < 224);
  check "poisson: sorted within the window"
    (Array.for_all (fun t -> t >= 0 && t < 2_000_000_000) a
    && fst (Array.fold_left (fun (ok, prev) t -> (ok && t >= prev, t)) (true, 0) a))

let histogram () =
  let within v = abs (Hist.value_of (Hist.index v) - v) * 64 <= v in
  check "histogram: every bucket within 1/64 of its values"
    (List.for_all within [ 0; 1; 63; 64; 65; 100; 1000; 4095; 4096; 123_456; 10_000_000; 1 lsl 40 ]);
  let h = Hist.create () in
  for v = 1 to 10_000 do
    Hist.add h v
  done;
  check "histogram: p50 and p99 of 1..10000" (within 5000 && abs (Hist.quantile h 0.5 - 5000) * 64 <= 5000
    && abs (Hist.quantile h 0.99 - 9900) * 64 <= 9900)

(* A stub endpoint on loopback: answers every request in order, except
   that once, [stall_after_ms] into the run, it stops for [stall_ms]. *)
let stub ~stall_after_ms ~stall_ms =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let port = match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let stall = Atomic.make (0, 0) in
  let dom =
    Domain.spawn (fun () ->
        let conns = List.init 2 (fun _ -> (fst (Unix.accept lfd), F.decoder ())) in
        let t0 = Common.now_ns () in
        let stalled = ref false in
        let buf = Bytes.create 65536 in
        let live = ref conns in
        while !live <> [] do
          if (not !stalled) && Common.now_ns () - t0 >= stall_after_ms * 1_000_000 then begin
            stalled := true;
            let s = Common.now_ns () in
            Unix.sleepf (float_of_int stall_ms /. 1e3);
            Atomic.set stall (s, Common.now_ns ())
          end;
          let r, _, _ = Unix.select (List.map fst !live) [] [] 0.001 in
          List.iter
            (fun fd ->
              let dec = List.assoc fd !live in
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 | (exception Unix.Unix_error _) ->
                  Unix.close fd;
                  live := List.remove_assoc fd !live
              | k ->
                  F.feed dec buf 0 k;
                  let rec answer () =
                    match F.next dec with
                    | Ok (Some p) ->
                        let resp =
                          match P.decode_req p with
                          | Ok (P.Insert { elts; _ }) -> P.Inserted (Array.length elts)
                          | _ -> P.Elements [||]
                        in
                        G.write_all fd (F.encode (P.encode_resp resp));
                        answer ()
                    | _ -> ()
                  in
                  answer ())
            r
        done;
        Unix.close lfd)
  in
  (port, stall, dom)

let coordinated_omission ~window =
  let stall_ms = 300 in
  let port, stall, dom = stub ~stall_after_ms:300 ~stall_ms in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let conns = [| G.connect addr; G.connect addr |] in
  let sched = G.schedule ~seed:11 ~rate:1000.0 ~duration_s:1.2 in
  let st =
    G.run ~conns ~route:(fun i -> i land 1) ~sched ~start:(Common.now_ns () + 1_000_000)
      ~build:(fun i ->
        if i land 1 = 0 then P.Insert { budget_ns = 50_000_000; elts = [| Zmsq_pq.Elt.of_priority i |] }
        else P.Extract { budget_ns = 50_000_000; max_n = 1 })
      ~on_resp:(fun _ _ -> G.ok)
      ~detail:false ~window ~drain_ns:2_000_000_000 ()
  in
  Array.iter G.close conns;
  Domain.join dom;
  let s0, s1 = Atomic.get stall in
  let name =
    if window = max_int then "stall (no window):" else Printf.sprintf "stall (window %d):" window
  in
  let during = ref 0 and charged = ref 0 and noticed = ref 0 and on_time = ref 0 and sent_in_stall = ref 0 in
  for i = 0 to st.G.n - 1 do
    let due = st.G.intended.(i) in
    if due >= s0 && due < s1 - 1_000_000 then begin
      incr during;
      (* Its latency, timed from when it was due, covers the rest of the stall. *)
      if st.G.recv.(i) - due >= s1 - due then incr charged;
      (* The generator saw it due on time, whatever held it back after. *)
      if st.G.noticed.(i) - due < 20_000_000 then incr noticed;
      (* The generator kept sending on schedule: open loop. *)
      if st.G.sent.(i) - due < 20_000_000 then incr on_time;
      if st.G.sent.(i) < s1 then incr sent_in_stall
    end
  done;
  check (Printf.sprintf "%s all %d requests answered" name st.G.n) (Array.for_all (fun s -> s = G.ok) st.G.status);
  check (Printf.sprintf "%s %d requests fell in the %d ms stall" name !during stall_ms) (!during >= 150);
  check (name ^ " each one's latency includes the rest of the stall") (!charged = !during);
  check (name ^ " the stall is not counted as generator lateness") (!noticed = !during);
  (* Open loop: sent when due, unless the window was full; with a window of
     8 on each of the 2 connections, at most 16 go out during the stall. *)
  if window = max_int then check (name ^ " each one was sent on time") (!on_time = !during)
  else check (name ^ " at most the windows' worth was sent during it") (!sent_in_stall <= 2 * window);
  let lat = Samples.create () in
  for i = 0 to st.G.n - 1 do
    Samples.add lat (st.G.recv.(i) - st.G.intended.(i))
  done;
  let s = Samples.summarize lat in
  check (Printf.sprintf "%s max latency %.1f ms reflects the stall" name (Common.ns_to_ms s.max))
    (s.max >= (stall_ms - 20) * 1_000_000)

let names_of kind spec =
  match Json.member kind spec with
  | Some (Json.Arr l) ->
      List.filter_map
        (fun m ->
          match (Option.bind (Json.member "name" m) Json.to_string_opt, Option.bind (Json.member "unit" m) Json.to_string_opt) with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        l
  | _ -> []

let tiny_runs ~main ~server ~spec_path =
  let spec = Json.of_string_exn (In_channel.with_open_bin spec_path In_channel.input_all) in
  let e2e = names_of "end_to_end" spec and layer = names_of "per_layer" spec in
  let same a b = List.sort compare a = List.sort compare b in
  List.iter
    (fun (trace, expected) ->
      let out = "selftest-out" in
      let args =
        [| main; "run"; "--workload"; "tiny"; "--seed"; "3"; "--seconds"; "2"; "--trace"; trace;
           "--server"; server; "--spec"; spec_path; "--out"; out |]
      in
      let r, w = Unix.pipe ~cloexec:true () in
      let pid = Unix.create_process main args Unix.stdin w Unix.stderr in
      Unix.close w;
      let text = In_channel.input_all (Unix.in_channel_of_descr r) in
      let _, status = Unix.waitpid [] pid in
      Unix.close r;
      let last = List.hd (List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text))) in
      let res = Json.of_string_exn last in
      check (Printf.sprintf "tiny run (trace %s): exits 0" trace) (status = Unix.WEXITED 0);
      check (Printf.sprintf "tiny run (trace %s): correct" trace) (Json.member "correct" res = Some (Json.Bool true));
      let got =
        match Json.member "metrics" res with
        | Some (Json.Obj l) ->
            List.filter_map
              (fun (k, v) ->
                match (Option.bind (Json.member "value" v) Json.to_float_opt, Option.bind (Json.member "unit" v) Json.to_string_opt) with
                | Some _, Some u -> Some (k, u)
                | _ -> None)
              l
        | _ -> []
      in
      check (Printf.sprintf "tiny run (trace %s): every named metric with its unit" trace) (same got expected))
    [ ("0", e2e); ("1", layer) ]

let () =
  match Sys.argv with
  | [| _; main; server; spec |] ->
      let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
      let main = abs main and server = abs server in
      poisson ();
      histogram ();
      coordinated_omission ~window:max_int;
      coordinated_omission ~window:8;
      tiny_runs ~main ~server ~spec_path:spec;
      if !failures > 0 then begin
        Printf.printf "%d self-test checks failed\n" !failures;
        exit 1
      end
  | _ ->
      prerr_endline "usage: selftest.exe MAIN_EXE SERVER_EXE BENCHMARK_JSON";
      exit 2
