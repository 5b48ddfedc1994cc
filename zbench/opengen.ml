(* Open-loop RPC generator: one thread, pipelined connections.

   Arrivals come from a seeded Poisson schedule fixed before the window
   opens; each request is sent when it is due whether or not earlier ones
   were answered, and its latency is taken from the time it was due (the
   intended send time), so a stall in the server is charged to every
   request that was scheduled during it (no coordinated omission). How
   late the generator itself ran (due to noticed) is recorded per request,
   apart from how long a full connection window held the request back
   (noticed to sent), which is the server's backpressure. Nothing is
   retried: a retry would be new load. *)

module P = Zmsq_net.Protocol
module F = Zmsq_net.Frame

let now_ns = Common.now_ns

(* Poisson arrival offsets (ns from the window start) over [duration_s]. *)
let schedule ~seed ~rate ~duration_s =
  let rng = Zmsq_util.Rng.create ~seed () in
  let out = Samples.create () in
  let rec go t =
    let t = t +. Zmsq_util.Rng.exponential rng ~rate in
    if t < duration_s then begin
      Samples.add out (int_of_float (t *. 1e9));
      go t
    end
  in
  go 0.0;
  Array.sub out.Samples.data 0 out.Samples.len

type conn = {
  fd : Unix.file_descr;
  dec : F.decoder;
  pending : int Queue.t;
  mutable alive : bool;
}

let connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  { fd; dec = F.decoder (); pending = Queue.create (); alive = true }

let close c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let write_all fd s =
  let off = ref 0 and left = ref (String.length s) in
  while !left > 0 do
    let n = Unix.write_substring fd s !off !left in
    off := !off + n;
    left := !left - n
  done

(* One blocking round trip outside the timed window (set-up, Stats). *)
let call c req ~timeout_s =
  write_all c.fd (F.encode (P.encode_req req));
  let buf = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match F.next c.dec with
    | Error e -> Error (F.error_to_string e)
    | Ok (Some payload) -> P.decode_resp payload
    | Ok None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then Error "timeout"
        else
          match Unix.select [ c.fd ] [] [] left with
          | [], _, _ -> wait ()
          | _ -> (
              match Unix.read c.fd buf 0 (Bytes.length buf) with
              | 0 -> Error "connection closed"
              | k ->
                  F.feed c.dec buf 0 k;
                  wait ()))
  in
  wait ()

(* Request outcome codes. *)
let pending = 0
let ok = 1
let refused = 2
let transport = 3
let missing = 4

type step = {
  n : int;
  intended : int array;  (** when the request was due *)
  noticed : int array;  (** when the generator saw that it was due *)
  sent : int array;  (** when the generator started sending it *)
  encoded : int array;  (** encode start; detail only *)
  written : int array;  (** encode end = write start; detail only *)
  flushed : int array;  (** write end; detail only *)
  recv : int array;  (** when the bytes completing its response arrived *)
  dec_start : int array;  (** detail only *)
  dec_end : int array;  (** detail only *)
  status : int array;
}

let make_step n =
  let z () = Array.make n 0 in
  {
    n;
    intended = z ();
    noticed = z ();
    sent = z ();
    encoded = z ();
    written = z ();
    flushed = z ();
    recv = z ();
    dec_start = z ();
    dec_end = z ();
    status = Array.make n pending;
  }

(* How often the optional monitor connection asks for [Stats]. *)
let monitor_every_ns = 100_000_000

(* Run one schedule. Request [i] goes on [conns.(route i)]; [build i] makes
   it and [on_resp i resp] classifies its answer (returns [ok] or
   [refused]). At most [window] requests are outstanding per connection,
   as a client must keep to the server's per-connection inflight window;
   a request due while its connection is full waits in the generator
   between [noticed] and [sent], and that wait is part of its latency.
   [detail] adds the per-request encode/write/decode stamps that spans
   need. An optional monitor connection is polled with [Stats] every
   [monitor_every_ns] and its answers handed to [on_stats]. After the last
   send, answers are awaited for [drain_ns]; what is still unanswered then
   is [missing]. *)
let run ~conns ~route ~sched ~start ~build ~on_resp ~detail ~window ?monitor
    ?(on_stats = fun _ _ -> ()) ~drain_ns () =
  let n = Array.length sched in
  let st = make_step n in
  let due = Array.map (fun _ -> Queue.create ()) conns in
  let buf = Bytes.create 65536 in
  let outstanding = ref 0 in
  let fail c code =
    Queue.iter
      (fun id ->
        st.status.(id) <- code;
        decr outstanding)
      c.pending;
    Queue.clear c.pending;
    close c
  in
  let send i =
    let c = conns.(route i) in
    st.sent.(i) <- now_ns ();
    if not c.alive then st.status.(i) <- transport
    else begin
      let req = build i in
      if detail then st.encoded.(i) <- now_ns ();
      let frame = F.encode (P.encode_req req) in
      if detail then st.written.(i) <- now_ns ();
      match write_all c.fd frame with
      | () ->
          if detail then st.flushed.(i) <- now_ns ();
          Queue.add i c.pending;
          incr outstanding
      | exception Unix.Unix_error _ ->
          st.status.(i) <- transport;
          fail c transport
    end
  in
  let mon_pending = ref false and mon_next = ref start in
  let rec frames c tr =
    match F.next c.dec with
    | Ok None -> ()
    | Error _ -> fail c transport
    | Ok (Some payload) -> (
        let d0 = if detail then now_ns () else 0 in
        let r = P.decode_resp payload in
        let d1 = if detail then now_ns () else 0 in
        match Queue.take_opt c.pending with
        | None -> fail c transport
        | Some id ->
            decr outstanding;
            st.recv.(id) <- tr;
            st.dec_start.(id) <- d0;
            st.dec_end.(id) <- d1;
            (match r with
            | Ok resp -> st.status.(id) <- on_resp id resp
            | Error _ -> st.status.(id) <- transport);
            frames c tr)
  in
  let read c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> fail c transport
    | k ->
        let tr = now_ns () in
        F.feed c.dec buf 0 k;
        frames c tr
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> fail c transport
  in
  let read_monitor m =
    match Unix.read m.fd buf 0 (Bytes.length buf) with
    | 0 -> close m
    | k ->
        F.feed m.dec buf 0 k;
        let rec go () =
          match F.next m.dec with
          | Ok (Some payload) ->
              mon_pending := false;
              (match P.decode_resp payload with
              | Ok (P.Stats_json s) -> on_stats (now_ns ()) s
              | _ -> ());
              go ()
          | Ok None -> ()
          | Error _ -> close m
        in
        go ()
    | exception Unix.Unix_error _ -> close m
  in
  let i = ref 0 in
  let deadline = ref max_int in
  let waiting () = Array.exists (fun q -> not (Queue.is_empty q)) due in
  while !i < n || waiting () || (!outstanding > 0 && now_ns () < !deadline) do
    let now = now_ns () in
    while !i < n && start + sched.(!i) <= now do
      st.intended.(!i) <- start + sched.(!i);
      st.noticed.(!i) <- now;
      Queue.add !i due.(route !i);
      incr i
    done;
    Array.iteri
      (fun k q ->
        let c = conns.(k) in
        while (not (Queue.is_empty q)) && ((not c.alive) || Queue.length c.pending < window) do
          send (Queue.pop q)
        done)
      due;
    if !i >= n && (not (waiting ())) && !deadline = max_int then deadline := now_ns () + drain_ns;
    (match monitor with
    | Some m when m.alive && (not !mon_pending) && !i < n && now_ns () >= !mon_next -> (
        mon_next := !mon_next + monitor_every_ns;
        match write_all m.fd (F.encode (P.encode_req P.Stats)) with
        | () -> mon_pending := true
        | exception Unix.Unix_error _ -> close m)
    | _ -> ());
    let now = now_ns () in
    let wake = if !i < n then start + sched.(!i) else if waiting () then now + 10_000_000 else !deadline in
    let wake = match monitor with Some m when m.alive && !i < n -> min wake !mon_next | _ -> wake in
    let fds =
      Array.fold_left (fun a c -> if c.alive && not (Queue.is_empty c.pending) then c.fd :: a else a) [] conns
    in
    let fds = match monitor with Some m when m.alive && !mon_pending -> m.fd :: fds | _ -> fds in
    let timeout = float_of_int (max 0 (wake - now)) /. 1e9 in
    match Unix.select fds [] [] timeout with
    | r, _, _ ->
        List.iter
          (fun fd ->
            match monitor with
            | Some m when m.fd = fd -> read_monitor m
            | _ -> Array.iter (fun c -> if c.alive && c.fd = fd then read c) conns)
          r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Unanswered after the drain: missing; their connection is out of step. *)
  Array.iter (fun c -> if not (Queue.is_empty c.pending) then fail c missing) conns;
  (* A Stats answer still in flight would desynchronize the monitor. *)
  (match monitor with
  | Some m when m.alive && !mon_pending -> (
      match Unix.select [ m.fd ] [] [] 1.0 with
      | [], _, _ -> close m
      | _ -> read_monitor m)
  | _ -> ());
  st
