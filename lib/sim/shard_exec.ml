open Mp_uarch
open Mp_codegen

(* Sharded multi-process measurement execution. The coordinator side
   shards a deduplicated batch across a pool of worker subprocesses
   (each a re-exec of this very executable, flagged by MP_SHARD_WORKER)
   and scatters the streamed results back; the worker side is a frame
   loop installed by Machine at module-init time. The split with
   Machine is deliberate: this module owns the protocol and the pool,
   Machine owns how a request is actually executed — injected through
   [install_executor] so the two don't depend on each other
   circularly. *)

(* ----- protocol ---------------------------------------------------------- *)

(* Wire types are Marshal'd. Everything here is plain data except the
   uarch's [resources] closure, which is why requests are written with
   [Marshal.Closures] — valid only between identical binaries, which
   the self-exec guarantees and the namespace check enforces (the
   namespace embeds a digest of the executable, the same guard the disk
   cache uses). *)

type machine_spec = {
  ms_seed : int;
  ms_cache : bool;
  ms_replay : bool;
  ms_uarch : Uarch_def.t;
}

type job = {
  j_config : Uarch_def.config;
  (* one element = homogeneous deployment (replicated over SMT
     threads); [smt] elements = heterogeneous per-thread programs *)
  j_programs : Ir.t list;
}

type request = {
  rq_ns : string; (* Measurement_cache.namespace () of the sender *)
  rq_chunk : int; (* echoed back verbatim: which chunk this frame carries *)
  rq_warmup : int;
  rq_measure : int;
  rq_period : bool option;
  rq_spec : machine_spec;
  rq_jobs : job array;
}

type response = {
  rs_ns : string;
  rs_chunk : int; (* the request's [rq_chunk] — pipelined and speculated
                     dispatch means a slot's responses are matched by
                     tag, never by arrival order alone *)
  rs_results : (Measurement.t array, string) result;
}

(* ----- knobs ------------------------------------------------------------- *)

let worker_env_var = "MP_SHARD_WORKER"

let net_worker_env_var = "MP_NET_WORKER"

(* set while this process is serving remote coordinators over TCP —
   the same "workers don't fan out" bar as the env flags, but for the
   CLI's [worker --listen] mode, which can't rely on its own
   environment having been scrubbed *)
let net_serving = ref false

let in_worker_process () =
  Sys.getenv_opt worker_env_var = Some "1"
  || Sys.getenv_opt net_worker_env_var <> None
  || !net_serving

(* MP_PROCS: 0/unset = in-process (unchanged behavior); N = that many
   workers; "auto" = one worker per domain-pool's worth of cores.
   Inside a worker process the answer is always 0 — workers never
   spawn their own process pools. *)
let env_procs () =
  if in_worker_process () then 0
  else
    match Sys.getenv_opt "MP_PROCS" with
    | None -> 0
    | Some s ->
      let s = String.lowercase_ascii (String.trim s) in
      if s = "" then 0
      else if s = "auto" then
        max 1
          (Mp_util.Parallel.detected_cores ()
          / max 1 (Mp_util.Parallel.default_size ()))
      else (
        match int_of_string_opt s with Some n when n >= 0 -> n | _ -> 0)

let default_timeout_s = 300.0

let env_timeout_s () =
  match Sys.getenv_opt "MP_PROC_TIMEOUT_S" with
  | Some s ->
    (match float_of_string_opt (String.trim s) with
     | Some v when v > 0.0 && Float.is_finite v -> v
     | _ -> default_timeout_s)
  | None -> default_timeout_s

(* "host:port,host:port,..."; entries that don't parse are dropped.
   The split is on the *last* colon so bracketless IPv6 literals keep
   working. Always [] inside a worker — remote workers never chain to
   further remotes. *)
let parse_hosts s =
  String.split_on_char ',' s
  |> List.filter_map (fun entry ->
         let entry = String.trim entry in
         match String.rindex_opt entry ':' with
         | None -> None
         | Some i ->
           let host = String.sub entry 0 i in
           let port = String.sub entry (i + 1) (String.length entry - i - 1) in
           (match int_of_string_opt port with
            | Some p when p > 0 && p < 65536 && host <> "" -> Some (host, p)
            | _ -> None))

let env_hosts () =
  if in_worker_process () then []
  else
    match Sys.getenv_opt "MP_HOSTS" with None -> [] | Some s -> parse_hosts s

(* Chunk frames kept in flight per slot. Workers serve strictly one
   request at a time, so the second outstanding frame sits in the
   socket buffer — its transfer and decode overlap the previous
   chunk's compute. *)
let inflight = 2

(* MP_SPECULATE: what an idle slot does once the queue is empty but
   chunks are still outstanding elsewhere. [Spec_on] (default)
   re-dispatches the oldest outstanding chunk to the idle slot and the
   first response wins — a straggler or silently-dead peer no longer
   gates the batch. [Spec_off] disables tail re-dispatch. [Spec_force]
   is a test hook: duplicate eagerly whenever a slot merely has spare
   capacity, guaranteeing duplicate completions so the first-result-wins
   merge path is exercised deterministically. *)
type speculate = Spec_off | Spec_on | Spec_force

let env_speculate () =
  match Sys.getenv_opt "MP_SPECULATE" with
  | Some s -> (
    match String.lowercase_ascii (String.trim s) with
    | "off" | "0" | "false" -> Spec_off
    | "force" -> Spec_force
    | _ -> Spec_on)
  | None -> Spec_on

(* ----- per-slot telemetry ------------------------------------------------- *)

(* Cumulative per slot label over every batch in the process, so
   the bench harness can report where the work actually ran (and how
   often speculation fired) without threading pool handles around. *)

type slot_stat = {
  sl_jobs : int; (* jobs whose first-accepted result came from here *)
  sl_chunks : int; (* chunks whose first-accepted result came from here *)
  sl_speculated : int; (* duplicate chunk copies dispatched to this slot *)
  sl_cancelled : int; (* completions discarded because a sibling won *)
  sl_busy_s : float; (* wall time with >= 1 chunk in flight here *)
  sl_wall_s : float; (* wall time of batches this slot participated in *)
}

let zero_stat =
  {
    sl_jobs = 0;
    sl_chunks = 0;
    sl_speculated = 0;
    sl_cancelled = 0;
    sl_busy_s = 0.0;
    sl_wall_s = 0.0;
  }

let slot_stats_tbl : (string, slot_stat) Hashtbl.t = Hashtbl.create 8
let slot_stats_lock = Mutex.create ()

let record_slot_stat label d =
  Mutex.lock slot_stats_lock;
  let cur =
    match Hashtbl.find_opt slot_stats_tbl label with
    | Some s -> s
    | None -> zero_stat
  in
  Hashtbl.replace slot_stats_tbl label
    {
      sl_jobs = cur.sl_jobs + d.sl_jobs;
      sl_chunks = cur.sl_chunks + d.sl_chunks;
      sl_speculated = cur.sl_speculated + d.sl_speculated;
      sl_cancelled = cur.sl_cancelled + d.sl_cancelled;
      sl_busy_s = cur.sl_busy_s +. d.sl_busy_s;
      sl_wall_s = cur.sl_wall_s +. d.sl_wall_s;
    };
  Mutex.unlock slot_stats_lock

let slot_stats () =
  Mutex.lock slot_stats_lock;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) slot_stats_tbl [] in
  Mutex.unlock slot_stats_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let reset_slot_stats () =
  Mutex.lock slot_stats_lock;
  Hashtbl.reset slot_stats_tbl;
  Mutex.unlock slot_stats_lock

let chunks_speculated () =
  List.fold_left (fun a (_, s) -> a + s.sl_speculated) 0 (slot_stats ())

let chunks_cancelled () =
  List.fold_left (fun a (_, s) -> a + s.sl_cancelled) 0 (slot_stats ())

(* the handshake both ends of a TCP connection must present: protocol
   tag plus the measurement-cache namespace (schema version + binary
   digest) — the same guard every request frame carries,
   moved to connect time so an incompatible peer is rejected before any
   closure-bearing frame is decoded *)
let net_handshake () =
  Bytes.of_string ("mpnet1 " ^ Measurement_cache.namespace ())

(* ----- sharding ---------------------------------------------------------- *)

(* Placement is keyed by the programs' structural hashes, so the same
   structural program always lands on the same worker: that worker's
   replay table and warm in-memory cache accumulate exactly the records
   this program will ask for again. Configuration deliberately does not
   enter the key — all configurations of one program share a worker's
   warm replay state. *)
let shard_index ~shards programs =
  let module F = Mp_util.Fnv in
  let h =
    List.fold_left (fun h p -> F.int64 h (Ir.struct_hash p)) F.seed programs
  in
  Int64.to_int (F.finish h) land max_int mod max 1 shards

(* ----- worker side ------------------------------------------------------- *)

(* Machine installs the request executor at module-init time (it can't
   be referenced directly from here without a dependency cycle). *)
let executor : (request -> Measurement.t array) option ref = ref None

let install_executor f = executor := Some f

(* One request → one response, shared by the subprocess worker and the TCP
   server. The namespace check is per-request even though the TCP path
   also handshakes at connect time: requests carry Marshal'd closures,
   so it is checked as close to the decode as possible. *)
let execute_request ns rq =
  if rq.rq_ns <> ns then
    Error (Printf.sprintf "namespace mismatch: got %s, have %s" rq.rq_ns ns)
  else
    match !executor with
    | None -> Error "no executor installed"
    | Some f -> ( try Ok (f rq) with e -> Error (Printexc.to_string e))

(* The worker frame loop over an arbitrary fd pair; returns on EOF,
   wire garbage, a dead coordinator, or [stop] turning true between
   requests (an in-flight request always finishes first — that is the
   graceful-drain contract). [idle_tick_s] bounds how long a quiet
   connection can delay noticing [stop]: the loop selects for
   readability on that tick and only then commits to a blocking frame
   read, so an idle tick is never mistaken for a closed peer. *)
let serve_loop ?(stop = ref false) ?idle_tick_s inp out =
  let ns = Measurement_cache.namespace () in
  let next_frame () =
    match idle_tick_s with
    | None -> (
      match Mp_util.Transport.read_frame inp with
      | Some p -> `Frame p
      | None -> `Closed)
    | Some tick ->
      let rec wait () =
        if !stop then `Closed
        else
          match Unix.select [ inp ] [] [] tick with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | [], _, _ -> wait ()
          | _ -> (
            match Mp_util.Transport.read_frame inp with
            | Some p -> `Frame p
            | None -> `Closed)
      in
      wait ()
  in
  let rec loop () =
    match next_frame () with
    | `Closed -> ()
    | `Frame payload ->
      (match (Marshal.from_bytes payload 0 : request) with
       | exception _ -> () (* garbage on the wire: bail out, get reaped *)
       | rq ->
         let rs =
           {
             rs_ns = ns;
             rs_chunk = rq.rq_chunk;
             rs_results = execute_request ns rq;
           }
         in
         (match Mp_util.Transport.write_frame out (Marshal.to_bytes rs []) with
          | () -> loop ()
          | exception _ -> () (* coordinator gone *)))
  in
  loop ()

let worker_main () =
  (* A coordinator that died mid-exchange turns our response write into
     EPIPE, which must surface as an exception (the loop exits cleanly),
     not a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (* Keep private copies of the protocol fds and point stdout at stderr
     for everyone else: any stray [print_string] in simulation code
     would otherwise corrupt the frame stream. *)
  let inp = Unix.dup Unix.stdin in
  let out = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  serve_loop inp out

(* ----- the TCP worker ----------------------------------------------------- *)

(* [serve] turns this process into a persistent remote worker: bind,
   accept one coordinator at a time, handshake, run the same frame loop
   the subprocess worker runs. SIGTERM/SIGINT set a stop flag instead of
   killing the process, so an in-flight request finishes and its
   response is delivered before we exit — the coordinator never loses a
   job to a polite shutdown. *)
let serve ?(host = "0.0.0.0") ~port () =
  net_serving := true;
  let stop = ref false in
  let request_stop _ = stop := true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop) with _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop) with _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let addr =
    match
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_PASSIVE ]
    with
    | ai :: _ -> ai.Unix.ai_addr
    | [] -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let lsock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec lsock;
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock addr;
  Unix.listen lsock 8;
  let hs = net_handshake () in
  let serve_conn fd =
    Unix.set_close_on_exec fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    let accepted =
      (* mirror of Workerpool's connect-side handshake: read theirs,
         echo ours; byte-inequality rejects the connection before any
         closure-bearing frame is decoded *)
      match Mp_util.Transport.read_frame ~timeout_s:10.0 fd with
      | Some theirs when Bytes.equal theirs hs ->
        (match Mp_util.Transport.write_frame fd hs with
         | () -> true
         | exception _ -> false)
      | Some _ | None -> false
    in
    if accepted then serve_loop ~stop ~idle_tick_s:0.25 fd fd;
    try Unix.close fd with _ -> ()
  in
  let rec accept_loop () =
    if not !stop then begin
      (* select tick so a pending SIGTERM is noticed within 0.25 s even
         when no coordinator ever connects *)
      (match Unix.select [ lsock ] [] [] 0.25 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | [], _, _ -> ()
       | _ ->
         (match Unix.accept lsock with
          | exception _ -> ()
          | fd, _ -> serve_conn fd));
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close lsock with _ -> ())

(* Called from Machine's module initializer — i.e. in every executable
   that links the simulator — so any such executable can be its own
   worker. Never returns in a worker process. MP_NET_WORKER holds
   "port" or "host:port" and turns the process into a TCP worker (used
   by [spawn_worker] for loopback workers in tests and benches);
   MP_SHARD_WORKER=1 serves frames over stdin/stdout. *)
let maybe_become_worker () =
  if Sys.getenv_opt worker_env_var = Some "1" then begin
    worker_main ();
    exit 0
  end
  else
    match Sys.getenv_opt net_worker_env_var with
    | None -> ()
    | Some spec ->
      let host, port =
        match String.rindex_opt spec ':' with
        | None -> ("127.0.0.1", int_of_string_opt (String.trim spec))
        | Some i ->
          ( String.sub spec 0 i,
            int_of_string_opt
              (String.sub spec (i + 1) (String.length spec - i - 1)) )
      in
      (match port with
       | Some port when port > 0 && port < 65536 ->
         (try serve ~host ~port ()
          with e ->
            prerr_endline
              (Printf.sprintf "MP_NET_WORKER %s: %s" spec (Printexc.to_string e));
            exit 1)
       | _ ->
         prerr_endline (Printf.sprintf "MP_NET_WORKER: bad listen spec %S" spec);
         exit 1);
      exit 0

(* Spawn a loopback TCP worker — a re-exec of this executable with
   MP_NET_WORKER set — and wait until its port accepts connections, so
   callers can build a pool against it without racing its startup. The
   probe connection is rejected by the server's handshake read (EOF)
   and costs it nothing. *)
let spawn_worker ?(env = []) ?(host = "127.0.0.1") ?(ready_timeout_s = 30.0)
    ~port () =
  let env =
    (net_worker_env_var, Printf.sprintf "%s:%d" host port)
    :: (("MP_PROCS", "0") :: env)
  in
  let envp = Mp_util.Workerpool.child_env env in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> try Unix.close devnull with _ -> ())
      (fun () ->
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name |]
          envp devnull Unix.stderr Unix.stderr)
  in
  let deadline = Unix.gettimeofday () +. ready_timeout_s in
  let addr =
    match
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
    with
    | ai :: _ -> ai.Unix.ai_addr
    | [] -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let rec wait_ready () =
    let probe () =
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          match Unix.connect fd addr with
          | () -> true
          | exception _ -> false)
    in
    if probe () then ()
    else if Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.02;
      wait_ready ()
    end
    else begin
      (try Unix.kill pid Sys.sigkill with _ -> ());
      (try ignore (Unix.waitpid [] pid) with _ -> ());
      failwith
        (Printf.sprintf "spawn_worker: %s:%d not accepting after %.1fs" host
           port ready_timeout_s)
    end
  in
  wait_ready ();
  pid

(* ----- coordinator side -------------------------------------------------- *)

(* A mixed pool: slots [0, procs) are worker subprocesses, the rest are
   TCP peers, all driven through one Workerpool. The shard fold neither
   knows nor cares which kind a slot is — placement depends only on the
   slot count, so an all-local, all-remote, or mixed pool of the same
   size shards identically. *)
type pool = {
  workers : Mp_util.Workerpool.t;
  hosts : (string * int) list;
  timeout_s : float;
}

let create_pool ?(env = []) ?timeout_s ?(hosts = []) n =
  let env =
    env
    @ [
        (worker_env_var, "1");
        (* workers must not recurse into pools of their own *)
        ("MP_PROCS", "0");
        ("MP_HOSTS", "");
      ]
  in
  {
    workers =
      Mp_util.Workerpool.create ~env ~hosts ~handshake:(net_handshake ()) n;
    hosts;
    timeout_s = (match timeout_s with Some s -> s | None -> env_timeout_s ());
  }

let pool_size p = Mp_util.Workerpool.size p.workers

let workers p = p.workers

let shutdown_pool p = Mp_util.Workerpool.shutdown p.workers

(* One sharded dispatch at a time per coordinator: each slot's
   socket carries one request/response conversation (a window of
   pipelined frames), so interleaving two batches over the same pool
   would cross their frames. *)
let dispatch_lock = Mutex.create ()

(* ----- scheduler ---------------------------------------------------------- *)

(* Aim for enough chunks that every slot refills its pipeline window a
   few times over — that is what lets fast slots drain a skewed shard —
   while keeping per-chunk framing overhead amortized. *)
let default_chunk_jobs ~jobs ~slots ~inflight =
  max 1 (jobs / (max 1 slots * max 1 inflight * 4))

type chunk_state = C_live | C_done | C_failed

type chunk = {
  c_id : int;
  c_jobs : int array; (* indices into the batch *)
  mutable c_state : chunk_state;
  mutable c_copies : int; (* dispatched copies currently outstanding *)
  mutable c_slots : int list; (* slots running those copies *)
  mutable c_first_sent : float;
}

(* per-batch, per-slot stat accumulator (merged into the process-wide
   table once the batch completes) *)
type slot_acc = {
  mutable a_jobs : int;
  mutable a_chunks : int;
  mutable a_spec : int;
  mutable a_cancel : int;
  mutable a_busy : float;
}

(* Work-conserving chunked dispatch. The batch is split into
   affinity-keyed chunks (the struct-hash fold still picks each chunk's
   *preferred* slot, so warm replay/cache state keeps accruing where it
   always did); every live slot keeps up to [inflight] chunk frames
   outstanding, and as completions arrive the next chunk is pulled from
   the slot's own queue, then from re-queued work of dead slots, then
   stolen from the longest sibling queue. Once the queues are dry, idle
   slots re-dispatch the oldest outstanding chunk ([speculate]) and the
   first response wins — a straggling or silently-dead slot no longer
   gates the batch. Results are scattered by the chunk's own job
   indices, so placement never affects what the caller sees. *)
let schedule p ~spec ~warmup ~measure ~period jobs results =
  let slots = pool_size p in
  let chunk_jobs =
    default_chunk_jobs ~jobs:(Array.length jobs) ~slots ~inflight
  in
  let speculate = env_speculate () in
  let ns = Measurement_cache.namespace () in
  let t_start = Unix.gettimeofday () in
  (* chunking: bucket job indices by preferred slot, split each bucket
     into runs of [chunk_jobs] *)
  let buckets = Array.make slots [] in
  Array.iteri
    (fun i j ->
      let s = shard_index ~shards:slots j.j_programs in
      buckets.(s) <- i :: buckets.(s))
    jobs;
  let rev_chunks = ref [] in
  let n_chunks = ref 0 in
  let pending = Array.init slots (fun _ -> Queue.create ()) in
  Array.iteri
    (fun s l ->
      let idxs = Array.of_list (List.rev l) in
      let len = Array.length idxs in
      let off = ref 0 in
      while !off < len do
        let k = min chunk_jobs (len - !off) in
        let c =
          {
            c_id = !n_chunks;
            c_jobs = Array.sub idxs !off k;
            c_state = C_live;
            c_copies = 0;
            c_slots = [];
            c_first_sent = 0.0;
          }
        in
        incr n_chunks;
        rev_chunks := c :: !rev_chunks;
        Queue.push c pending.(s);
        off := !off + k
      done)
    buckets;
  let chunks = Array.of_list (List.rev !rev_chunks) in
  let live_left = ref (Array.length chunks) in
  let wp = p.workers in
  let live = Array.make slots true in
  (* slots whose last refill found the buffer full *)
  let blocked = Array.make slots false in
  let requeue = Queue.create () in
  let inflightq = Array.make slots [] in (* oldest dispatch first *)
  let deadline = Array.make slots infinity in
  let busy_since = Array.make slots None in
  let stats =
    Array.init slots (fun _ ->
        { a_jobs = 0; a_chunks = 0; a_spec = 0; a_cancel = 0; a_busy = 0.0 })
  in
  let now () = Unix.gettimeofday () in
  let flush_busy s t =
    match busy_since.(s) with
    | Some t0 ->
      stats.(s).a_busy <- stats.(s).a_busy +. (t -. t0);
      busy_since.(s) <- None
    | None -> ()
  in
  let remove_slot s c = c.c_slots <- List.filter (fun x -> x <> s) c.c_slots in
  let fail_slot s =
    if live.(s) then begin
      live.(s) <- false;
      flush_busy s (now ());
      Mp_util.Workerpool.reap wp s;
      (* copies lost with the slot re-enter the queue — unless another
         copy is still running (speculation) or the chunk already
         finished *)
      List.iter
        (fun c ->
          c.c_copies <- c.c_copies - 1;
          remove_slot s c;
          if c.c_state = C_live && c.c_copies = 0 then Queue.push c requeue)
        inflightq.(s);
      inflightq.(s) <- [];
      deadline.(s) <- infinity;
      (* its never-dispatched affinity work too *)
      Queue.transfer pending.(s) requeue
    end
  in
  let dispatch s c ~spec_copy =
    let rq =
      {
        rq_ns = ns;
        rq_chunk = c.c_id;
        rq_warmup = warmup;
        rq_measure = measure;
        rq_period = period;
        rq_spec = spec;
        rq_jobs = Array.map (fun i -> jobs.(i)) c.c_jobs;
      }
    in
    match Marshal.to_bytes rq [ Marshal.Closures ] with
    | exception _ ->
      (* unmarshalable spec: deterministic, don't re-queue — the
         caller's in-process recovery picks these jobs up *)
      if c.c_state = C_live && c.c_copies = 0 then begin
        c.c_state <- C_failed;
        decr live_left
      end;
      `Chunk_failed
    | payload ->
      if Mp_util.Workerpool.send ~timeout_s:p.timeout_s wp s payload then begin
        let t = now () in
        if c.c_copies = 0 then c.c_first_sent <- t;
        c.c_copies <- c.c_copies + 1;
        c.c_slots <- s :: c.c_slots;
        if inflightq.(s) = [] then begin
          busy_since.(s) <- Some t;
          deadline.(s) <- t +. p.timeout_s
        end;
        inflightq.(s) <- inflightq.(s) @ [ c ];
        if spec_copy then stats.(s).a_spec <- stats.(s).a_spec + 1;
        `Sent
      end
      else begin
        fail_slot s;
        (* the chunk in hand was popped from a queue and never made it
           into this slot's in-flight list, so [fail_slot] cannot see
           it — re-queue it here unless a speculated copy still runs *)
        if c.c_state = C_live && c.c_copies = 0 then Queue.push c requeue;
        `Slot_dead
      end
  in
  let steal_victim s =
    let best = ref (-1) and best_len = ref 0 in
    Array.iteri
      (fun v q ->
        if v <> s then begin
          let len = Queue.length q in
          if len > !best_len then begin
            best := v;
            best_len := len
          end
        end)
      pending;
    if !best >= 0 then Some pending.(!best) else None
  in
  let rec next_work s =
    let popped =
      if not (Queue.is_empty pending.(s)) then Some (Queue.pop pending.(s))
      else if not (Queue.is_empty requeue) then Some (Queue.pop requeue)
      else
        match steal_victim s with Some q -> Some (Queue.pop q) | None -> None
    in
    match popped with
    | Some c when c.c_state <> C_live -> next_work s (* defensive skip *)
    | x -> x
  in
  (* the oldest still-outstanding chunk not already running here, one
     duplicate copy at most *)
  let pick_speculation s =
    let best = ref None in
    Array.iter
      (fun c ->
        if
          c.c_state = C_live && c.c_copies >= 1 && c.c_copies < 2
          && not (List.mem s c.c_slots)
        then
          match !best with
          | Some b when b.c_first_sent <= c.c_first_sent -> ()
          | _ -> best := Some c)
      chunks;
    !best
  in
  let recv_one s =
    match Mp_util.Workerpool.recv ~timeout_s:p.timeout_s wp s with
    | None -> fail_slot s
    | Some payload ->
      (match (Marshal.from_bytes payload 0 : response) with
       | exception _ -> fail_slot s
       | rs ->
         if rs.rs_ns <> ns then fail_slot s
         else (
           match
             List.find_opt (fun c -> c.c_id = rs.rs_chunk) inflightq.(s)
           with
           | None -> fail_slot s (* a tag we never sent here *)
           | Some c ->
             inflightq.(s) <- List.filter (fun x -> x != c) inflightq.(s);
             c.c_copies <- c.c_copies - 1;
             remove_slot s c;
             let t = now () in
             if inflightq.(s) = [] then begin
               flush_busy s t;
               deadline.(s) <- infinity
             end
             else deadline.(s) <- t +. p.timeout_s;
             if c.c_state <> C_live then
               (* a sibling's copy already won: first result stands *)
               stats.(s).a_cancel <- stats.(s).a_cancel + 1
             else (
               match rs.rs_results with
               | Error _ ->
                 (* executor-reported failure. With another copy still
                    running, let it decide (the failure may be
                    slot-local); with none, it is deterministic — do
                    NOT re-queue (that would loop), leave the jobs for
                    the caller's in-process recovery *)
                 if c.c_copies = 0 then begin
                   c.c_state <- C_failed;
                   decr live_left
                 end
               | Ok arr when Array.length arr = Array.length c.c_jobs ->
                 Array.iteri (fun k i -> results.(i) <- Some arr.(k)) c.c_jobs;
                 c.c_state <- C_done;
                 decr live_left;
                 stats.(s).a_jobs <- stats.(s).a_jobs + Array.length c.c_jobs;
                 stats.(s).a_chunks <- stats.(s).a_chunks + 1
               | Ok _ ->
                 (* wrong cardinality: protocol violation — the chunk is
                    lost here but not deterministically failed *)
                 if c.c_copies = 0 then Queue.push c requeue;
                 fail_slot s)))
  in
  let any_live () = Array.exists Fun.id live in
  let rec loop () =
    if !live_left > 0 && any_live () then begin
      (* dispatch: keep every live slot's window full. The first frame
         may block; refills are gated on a
         zero-timeout writability probe so one slot's full buffer never
         wedges the whole loop. *)
      for s = 0 to slots - 1 do
        let rec fill () =
          if live.(s) && List.length inflightq.(s) < inflight then begin
            let can_send =
              inflightq.(s) = [] || Mp_util.Workerpool.writable wp s
            in
            blocked.(s) <- not can_send;
            if can_send then (
              match next_work s with
              | Some c -> (
                match dispatch s c ~spec_copy:false with
                | `Sent | `Chunk_failed -> fill ()
                | `Slot_dead -> ())
              | None ->
                let want_spec =
                  match speculate with
                  | Spec_off -> false
                  | Spec_on -> inflightq.(s) = []
                  | Spec_force -> true
                in
                if want_spec then (
                  match pick_speculation s with
                  | Some c -> (
                    match dispatch s c ~spec_copy:true with
                    | `Sent -> fill ()
                    | `Chunk_failed | `Slot_dead -> ())
                  | None -> ()))
          end
        in
        fill ()
      done;
      (* collect: wait for any completion, bounded by the nearest slot
         deadline (a slot that goes silent for timeout_s between frames
         is declared dead and its chunks re-queued), or for a blocked
         slot's buffer to drain — its worker has taken the frame in
         flight, so the next one can go out while that chunk computes *)
      let waiting = ref [] in
      for s = slots - 1 downto 0 do
        if live.(s) && inflightq.(s) <> [] then waiting := s :: !waiting
      done;
      if !waiting <> [] then begin
        let t = now () in
        let nearest =
          List.fold_left (fun a s -> Float.min a deadline.(s)) infinity !waiting
        in
        let tick = Float.max 0.0 (Float.min 0.25 (nearest -. t)) in
        let ready =
          Mp_util.Workerpool.select_readable ~timeout_s:tick
            ~or_writable:(List.filter (fun s -> blocked.(s)) !waiting)
            wp !waiting
        in
        List.iter (fun s -> if live.(s) then recv_one s) ready;
        let t = now () in
        for s = 0 to slots - 1 do
          if live.(s) && inflightq.(s) <> [] && t > deadline.(s) then
            fail_slot s
        done;
        loop ()
      end
      (* waiting = [] with work left only happens when every remaining
         chunk just failed or every slot died mid-dispatch: fall out,
         the caller recovers the [None] positions *)
    end
  in
  loop ();
  (* Speculated copies may still be in flight after the last chunk
     completed. Their frames must not survive into the next batch, so
     drain them briefly (counting late duplicates as cancelled); a slot
     still silent after the grace window is reaped — it was the
     straggler speculation routed around, and a reap now beats a stale
     frame later. *)
  let drain_deadline = now () +. Float.min 1.0 p.timeout_s in
  let rec drain () =
    let waiting = ref [] in
    for s = slots - 1 downto 0 do
      if live.(s) && inflightq.(s) <> [] then waiting := s :: !waiting
    done;
    if !waiting <> [] then begin
      let left = drain_deadline -. now () in
      if left <= 0.0 then List.iter fail_slot !waiting
      else begin
        let ready =
          Mp_util.Workerpool.select_readable ~timeout_s:(Float.min left 0.1)
            wp !waiting
        in
        List.iter (fun s -> if live.(s) then recv_one s) ready;
        drain ()
      end
    end
  in
  drain ();
  let t_end = now () in
  let wall = t_end -. t_start in
  Array.iteri
    (fun s a ->
      flush_busy s t_end;
      record_slot_stat
        (Mp_util.Workerpool.label wp s)
        {
          sl_jobs = a.a_jobs;
          sl_chunks = a.a_chunks;
          sl_speculated = a.a_spec;
          sl_cancelled = a.a_cancel;
          sl_busy_s = a.a_busy;
          sl_wall_s = wall;
        })
    stats

let run_jobs p ~spec ~warmup ~measure ?period jobs =
  let jobs = Array.of_list jobs in
  let results = Array.make (Array.length jobs) None in
  if Array.length jobs > 0 then
    Mutex.protect dispatch_lock (fun () ->
        schedule p ~spec ~warmup ~measure ~period jobs results);
  results

(* ----- the shared pool --------------------------------------------------- *)

let global : pool option ref = ref None
let global_lock = Mutex.create ()

let shutdown_global () =
  Mutex.lock global_lock;
  let p = !global in
  global := None;
  Mutex.unlock global_lock;
  Option.iter shutdown_pool p

let () = at_exit shutdown_global

let get_pool ?(hosts = []) n =
  Mutex.protect global_lock (fun () ->
      match !global with
      | Some p when p.hosts = hosts ->
        (* grown under the dispatch lock, so a batch in flight never
           sees its slot indices shift *)
        Mutex.protect dispatch_lock (fun () ->
            Mp_util.Workerpool.ensure_size p.workers n);
        p
      | stale ->
        (* the host set changed: replace the pool rather than serve a
           stale topology — shard placement depends on the slot count *)
        Option.iter shutdown_pool stale;
        let p = create_pool ~hosts n in
        global := Some p;
        p)

let global_size () =
  match !global with Some p -> Mp_util.Workerpool.procs p.workers | None -> 0

let global_remote_size () =
  match !global with Some p -> List.length p.hosts | None -> 0
