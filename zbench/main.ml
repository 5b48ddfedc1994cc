(* zbench: the ZMSQ benchmark.

     main.exe run --workload W --seed N --seconds S --trace 0|1 --server EXE
                  --spec BENCHMARK.json [--out DIR]
       one benchmark run: all three phases, the result (the metrics the
       spec names, with their units) as the last line
     main.exe phase sssp|mixed|wire --workload W --seed N --budget S
                    --trace 0|1 --server EXE [--spans DIR]
       one phase in this process (what [run] spawns) *)

open Zbench

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 --server EXE --spec FILE [--out DIR]\n\
    \       main.exe phase sssp|mixed|wire --workload W --seed N --budget S --trace 0|1 --server EXE [--spans DIR]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, phase, rest =
    match args with
    | "run" :: rest -> (`Run, "", rest)
    | "phase" :: p :: rest -> (`Phase, p, rest)
    | _ -> usage ()
  in
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace opts (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | _ -> usage ()
  in
  parse rest;
  let get k = match Hashtbl.find_opt opts k with Some v -> v | None -> usage () in
  let num k f = match f (get k) with Some v -> v | None -> usage () in
  let w =
    match Workloads.find (get "workload") with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" (get "workload");
        exit 2
  in
  let seed = num "seed" int_of_string_opt in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let server = get "server" in
  match mode with
  | `Run ->
      Suite.run ~w ~seed ~seconds:(num "seconds" float_of_string_opt) ~trace ~server ~spec:(get "spec")
        ~out:(Option.value ~default:"zbench/out" (Hashtbl.find_opt opts "out"))
  | `Phase ->
      let budget_s = num "budget" float_of_string_opt in
      let span_dir = Hashtbl.find_opt opts "spans" in
      let r =
        match phase with
        | "sssp" -> Phase_sssp.run ~seed ~w ~budget_s ~trace ~span_dir
        | "mixed" -> Phase_mixed.run ~seed ~w ~budget_s ~trace ~span_dir
        | "wire" -> Phase_wire.run ~seed ~w ~budget_s ~trace ~span_dir ~server_exe:server
        | _ -> usage ()
      in
      Common.emit r
