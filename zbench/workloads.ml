(* The benchmark's workloads. Every run executes all three phases, so
   every end-to-end metric is measured on every workload; a workload
   fixes the sizes the phases run at. *)

type t = {
  name : string;
  graph_n : int;  (** SSSP: Barabasi-Albert vertices *)
  graph_m : int;  (** SSSP: attachments per new vertex *)
  preload : int;  (** mixed: elements in the queue before the timed window *)
  backlog : int;  (** wire: standing backlog preloaded into the server *)
}

(* Offered RPC rates of the wire phase (insert and extract RPCs together,
   per second). Frozen: changing them changes what rpc_*.low/.high mean. *)
let low_rps = 2000.0
let high_rps = 6000.0
let insert_batch = 32
let extract_max = 32
let budget_ns = 50_000_000

let all =
  [
    (* A queue and a wire backlog that fit one core's 4 MiB L2. The graph
       is half of large's: how much relaxation wastes depends on the
       graph, and over ten seeds pops per vertex spread by 3-5% at 50K
       vertices, by 1-1.6% at 200K. *)
    { name = "small"; graph_n = 200_000; graph_m = 8; preload = 65_536; backlog = 1_024 };
    (* Working sets well past L2: a 400K-vertex graph (the LiveJournal
       stand-in's scale) and a 1M-element queue. The backlog is half the
       server's 16,384-element admission high-water mark, leaving room for
       the inserts that run ahead of extraction when the server lags. *)
    { name = "large"; graph_n = 400_000; graph_m = 8; preload = 1_000_000; backlog = 8_192 };
    (* Self-test scale only: seconds, not minutes. *)
    { name = "tiny"; graph_n = 2_000; graph_m = 4; preload = 4_096; backlog = 256 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
