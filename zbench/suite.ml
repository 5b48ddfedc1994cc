(* One benchmark run: the three phases, each in its own process (so each
   has a clean heap and its own peak RSS), merged into one result. *)

module Json = Zmsq_obs.Json

type phase_out = { p_name : string; res : Json.t }

let phases = [ ("sssp", 0.35); ("mixed", 0.30); ("wire", 0.35) ]

(* A whole run must end well inside three minutes; a phase still running
   at [deadline] is killed together with everything it started (it leads
   its own process group, which the wire phase's server inherits). *)
let run_phase ~exe ~args ~deadline =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          ignore (Unix.setsid ());
          Unix.dup2 ~cloexec:false w Unix.stdout;
          Unix.execv exe (Array.of_list (exe :: args))
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close w;
  let out = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec pump () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then begin
      Printf.eprintf "zbench: phase timed out, killing it\n%!";
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ())
    end
    else
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> pump ()
      | _ -> (
          match Unix.read r chunk 0 4096 with
          | 0 -> ()
          | k ->
              Buffer.add_subbytes out chunk 0 k;
              pump ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  pump ();
  Unix.close r;
  let out = Buffer.contents out in
  let _, status = Unix.waitpid [] pid in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out) in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> Json.of_string last
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "exited with %d" c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ -> Error (Printf.sprintf "killed by signal %d" s)

let field k j = Option.value ~default:Json.Null (Json.member k j)
let num k j = Option.value ~default:nan (Json.to_float_opt (field k j))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The metrics BENCHMARK.json names, with their units: [end_to_end] for an
   untraced run, [per_layer] for a traced one. *)
let metrics_of_spec spec ~key =
  let str k m = Option.bind (Json.member k m) Json.to_string_opt in
  match Json.member key spec with
  | Some (Json.Arr l) ->
      List.map
        (fun m ->
          match (str "name" m, str "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> failwith ("zbench: a metric in " ^ key ^ " lacks a name or a unit"))
        l
  | _ -> failwith ("zbench: the benchmark spec has no " ^ key ^ " list")

let git_commit () =
  match Sys.getenv_opt "ZBENCH_COMMIT" with Some c when c <> "" -> c | _ -> "unknown"

(* Merge the phases' span fragments into one Chrome trace file. *)
let merge_spans ~dir ~dest =
  let oc = open_out dest in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun (p, _) ->
      let f = Filename.concat dir ("spans-" ^ p ^ ".jsonl") in
      if Sys.file_exists f then begin
        List.iter
          (fun l ->
            if l <> "" then begin
              if not !first then output_string oc ",\n";
              first := false;
              output_string oc l
            end)
          (String.split_on_char '\n' (read_file f));
        Sys.remove f
      end)
    phases;
  output_string oc "\n]}\n";
  close_out oc;
  (try Sys.rmdir dir with Sys_error _ -> ())

let run ~(w : Workloads.t) ~seed ~seconds ~trace ~server ~spec ~out =
  let exe = Sys.executable_name in
  let spec = Json.of_string_exn (read_file spec) in
  let e2e = metrics_of_spec spec ~key:"end_to_end" and layer = metrics_of_spec spec ~key:"per_layer" in
  let wanted = List.map fst (if trace then layer else e2e) in
  let unit_of n = Option.value ~default:"" (List.assoc_opt n (e2e @ layer)) in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let tag = Printf.sprintf "%s-seed%d" w.name seed in
  let span_dir = Filename.concat out ("spans-" ^ tag) in
  if trace then (try Sys.mkdir span_dir 0o755 with Sys_error _ -> ());
  let deadline = Unix.gettimeofday () +. 170.0 in
  let steal0, total0 = Common.cpu_jiffies () in
  let outs =
    List.map
      (fun (p, share) ->
        let args =
          [ "phase"; p; "--workload"; w.name; "--seed"; string_of_int seed; "--budget";
            Printf.sprintf "%.3f" (seconds *. share); "--trace"; (if trace then "1" else "0");
            "--server"; server ]
          @ if trace then [ "--spans"; span_dir ] else []
        in
        match run_phase ~exe ~args ~deadline with
        | Ok res -> { p_name = p; res }
        | Error e ->
            Printf.eprintf "zbench: phase %s failed: %s\n%!" p e;
            exit 2)
      phases
  in
  let correct = List.for_all (fun o -> field "correct" o.res = Json.Bool true) outs in
  let sum_int k = List.fold_left (fun a o -> a + Option.value ~default:0 (Json.to_int_opt (field k o.res))) 0 outs in
  let attempted = sum_int "attempted" and failed = sum_int "failed" in
  let metrics_of o = match field "metrics" o.res with Json.Obj l -> l | _ -> [] in
  let summed = [ "setup_s"; "peak_rss_mb" ] in
  let own o =
    List.filter_map
      (fun (k, v) -> if List.mem k summed then None else Some (k, Option.value ~default:nan (Json.to_float_opt v)))
      (metrics_of o)
  in
  let merged =
    List.map (fun k -> (k, List.fold_left (fun a o -> a +. num k (field "metrics" o.res)) 0.0 outs)) summed
    @ List.concat_map own outs
    @ [ ("failed_pct", 100.0 *. Common.ratio failed attempted) ]
  in
  (* A metric that is missing or not a finite number (a latency quantile
     that falls on refused requests) means the run did not measure. *)
  let bad =
    List.filter (fun n -> match List.assoc_opt n merged with Some v -> not (Float.is_finite v) | None -> true) wanted
  in
  if bad <> [] then begin
    Printf.eprintf "zbench: metrics missing or not finite: %s\n%!" (String.concat ", " bad);
    exit 2
  end;
  let errors =
    List.concat_map
      (fun o -> match field "errors" o.res with Json.Arr l -> List.filter_map Json.to_string_opt l | _ -> [])
      outs
  in
  let steal1, total1 = Common.cpu_jiffies () in
  let env =
    [
      ("host_steal_pct", Json.Float (100.0 *. Common.ratio (steal1 - steal0) (total1 - total0)));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("git_commit", Json.Str (git_commit ()));
      ("OCAMLRUNPARAM", Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
      ("ZMSQ_OBS", Json.Str (Option.value ~default:"" (Sys.getenv_opt "ZMSQ_OBS")));
    ]
  in
  let record =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("env", Json.Obj env);
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("errors", Json.Arr (List.map (fun e -> Json.Str e) errors));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (unit_of k)) ]))
               merged) );
        ("phases", Json.Obj (List.map (fun o -> (o.p_name, field "info" o.res)) outs));
      ]
  in
  let record_path = Filename.concat out (Printf.sprintf "result-%s-trace%d.json" tag (if trace then 1 else 0)) in
  Out_channel.with_open_bin record_path (fun oc -> output_string oc (Json.to_string record ^ "\n"));
  if trace then merge_spans ~dir:span_dir ~dest:(Filename.concat out ("trace-" ^ tag ^ ".json"));
  (* Human-readable lines, then the one-line result. *)
  List.iter (fun (k, v) -> Printf.printf "# %-10s %s\n" k (Json.to_string v)) env;
  List.iter (fun o -> Printf.printf "# %-10s %s\n" o.p_name (Json.to_string (field "info" o.res))) outs;
  List.iter (fun (k, v) -> Printf.printf "%-34s %14.6g %s\n" k v (unit_of k)) merged;
  Printf.printf "# attempted %d, failed %d (%.4f%%), correct %b\n" attempted failed
    (100.0 *. Common.ratio failed attempted) correct;
  List.iter (fun e -> Printf.printf "# ERROR %s\n" e) errors;
  Printf.printf "# record %s\n" record_path;
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int (max 1 attempted));
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun n -> (n, Json.Obj [ ("value", Json.Float (List.assoc n merged)); ("unit", Json.Str (unit_of n)) ]))
               wanted) );
      ]
  in
  print_endline (Json.to_string result);
  if not correct then exit 1
