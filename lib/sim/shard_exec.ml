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
  rq_period : bool;
  rq_spec : machine_spec;
  rq_jobs : job array;
}

type response = {
  rs_ns : string;
  rs_chunk : int; (* the request's [rq_chunk] — with pipelined
                     dispatch a slot's responses are matched by tag,
                     never by arrival order alone *)
  rs_results : (Measurement.t array, string) result;
}

(* ----- knobs ------------------------------------------------------------- *)

let worker_env_var = "MP_SHARD_WORKER"

let in_worker_process () = Mp_util.Env.flag worker_env_var ~default:false

(* MP_PROCS: 0/unset = in-process (unchanged behavior); N = that many
   workers; "auto" = one worker per domain-pool's worth of cores.
   Inside a worker process the answer is always 0 — workers never
   spawn their own process pools. *)
let env_procs () =
  if in_worker_process () then 0
  else
    match Option.map String.lowercase_ascii (Mp_util.Env.get "MP_PROCS") with
    | Some "auto" ->
      max 1
        (Mp_util.Parallel.detected_cores ()
        / max 1 (Mp_util.Parallel.default_size ()))
    | _ -> Option.value ~default:0 (Mp_util.Env.int "MP_PROCS" ~min:0)

(* Chunk frames kept in flight per slot. Workers serve strictly one
   request at a time, so the second outstanding frame sits in the
   socket buffer — its transfer and decode overlap the previous
   chunk's compute. *)
let inflight = 2

(* ----- per-slot telemetry ------------------------------------------------- *)

(* Cumulative per slot label over every batch in the process, so
   the bench harness can report where the work actually ran without
   threading pool handles around. *)

type slot_stat = {
  sl_jobs : int; (* jobs whose results came from here *)
  sl_chunks : int; (* chunks whose results came from here *)
  sl_busy_s : float; (* wall time with >= 1 chunk in flight here *)
  sl_wall_s : float; (* wall time of batches this slot participated in *)
}

let zero_stat =
  {
    sl_jobs = 0;
    sl_chunks = 0;
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

(* One request → one response. The namespace is checked per request,
   as close to the decode as possible: requests carry Marshal'd
   closures. *)
let execute_request ns rq =
  if rq.rq_ns <> ns then
    Error (Printf.sprintf "namespace mismatch: got %s, have %s" rq.rq_ns ns)
  else
    match !executor with
    | None -> Error "no executor installed"
    | Some f -> ( try Ok (f rq) with e -> Error (Printexc.to_string e))

(* The worker frame loop; returns on EOF, wire garbage or a dead
   coordinator. *)
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
  let ns = Measurement_cache.namespace () in
  let rec loop () =
    match Mp_util.Transport.read_frame inp with
    | None -> ()
    | Some payload -> (
      match (Marshal.from_bytes payload 0 : request) with
      | exception _ -> () (* garbage on the wire: bail out, get reaped *)
      | rq -> (
        let rs =
          {
            rs_ns = ns;
            rs_chunk = rq.rq_chunk;
            rs_results = execute_request ns rq;
          }
        in
        match Mp_util.Transport.write_frame out (Marshal.to_bytes rs []) with
        | () -> loop ()
        | exception _ -> () (* coordinator gone *)))
  in
  loop ()

(* Called from Machine's module initializer — i.e. in every executable
   that links the simulator — so any such executable can be its own
   worker. Never returns in a worker process. *)
let maybe_become_worker () =
  if in_worker_process () then begin
    worker_main ();
    exit 0
  end

(* ----- coordinator side -------------------------------------------------- *)

type pool = {
  workers : Mp_util.Workerpool.t;
  timeout_s : float;
}

let create_pool ?(env = []) n =
  let env =
    env
    @ [
        (worker_env_var, "1");
        (* workers must not recurse into pools of their own *)
        ("MP_PROCS", "0");
      ]
  in
  {
    workers = Mp_util.Workerpool.create ~env n;
    timeout_s =
      Option.value ~default:300.0
        (Mp_util.Env.positive_float "MP_PROC_TIMEOUT_S");
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

(* Until it completes or fails, a chunk sits in exactly one place: a
   queue, or one slot's in-flight list. *)
type chunk = {
  c_id : int;
  c_jobs : int array; (* indices into the batch *)
}

(* per-batch, per-slot stat accumulator (merged into the process-wide
   table once the batch completes) *)
type slot_acc = {
  mutable a_jobs : int;
  mutable a_chunks : int;
  mutable a_busy : float;
}

(* Work-conserving chunked dispatch. The batch is split into
   affinity-keyed chunks (the struct-hash fold still picks each chunk's
   *preferred* slot, so warm replay/cache state keeps accruing where it
   always did); every live slot keeps up to [inflight] chunk frames
   outstanding, and as completions arrive the next chunk is pulled from
   the slot's own queue, then from re-queued work of dead slots, then
   stolen from the longest sibling queue. Results are scattered by the
   chunk's own job indices, so placement never affects what the caller
   sees. *)
let schedule p ~spec ~warmup ~measure ~period jobs results =
  let slots = pool_size p in
  let chunk_jobs =
    default_chunk_jobs ~jobs:(Array.length jobs) ~slots ~inflight
  in
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
  let n_chunks = ref 0 in
  let pending = Array.init slots (fun _ -> Queue.create ()) in
  Array.iteri
    (fun s l ->
      let idxs = Array.of_list (List.rev l) in
      let len = Array.length idxs in
      let off = ref 0 in
      while !off < len do
        let k = min chunk_jobs (len - !off) in
        Queue.push
          { c_id = !n_chunks; c_jobs = Array.sub idxs !off k }
          pending.(s);
        incr n_chunks;
        off := !off + k
      done)
    buckets;
  (* chunks neither completed nor failed for good *)
  let live_left = ref !n_chunks in
  let wp = p.workers in
  let live = Array.make slots true in
  (* slots whose last refill found the buffer full *)
  let blocked = Array.make slots false in
  let requeue = Queue.create () in
  let inflightq = Array.make slots [] in (* oldest dispatch first *)
  let deadline = Array.make slots infinity in
  let busy_since = Array.make slots None in
  let stats =
    Array.init slots (fun _ -> { a_jobs = 0; a_chunks = 0; a_busy = 0.0 })
  in
  let now () = Unix.gettimeofday () in
  let flush_busy s t =
    match busy_since.(s) with
    | Some t0 ->
      stats.(s).a_busy <- stats.(s).a_busy +. (t -. t0);
      busy_since.(s) <- None
    | None -> ()
  in
  let fail_slot s =
    if live.(s) then begin
      live.(s) <- false;
      flush_busy s (now ());
      Mp_util.Workerpool.reap wp s;
      (* chunks lost with the slot re-enter the queue, and so does its
         never-dispatched affinity work *)
      List.iter (fun c -> Queue.push c requeue) inflightq.(s);
      inflightq.(s) <- [];
      deadline.(s) <- infinity;
      Queue.transfer pending.(s) requeue
    end
  in
  let dispatch s c =
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
      decr live_left
    | payload ->
      if Mp_util.Workerpool.send ~timeout_s:p.timeout_s wp s payload then begin
        let t = now () in
        if inflightq.(s) = [] then begin
          busy_since.(s) <- Some t;
          deadline.(s) <- t +. p.timeout_s
        end;
        inflightq.(s) <- inflightq.(s) @ [ c ]
      end
      else begin
        fail_slot s;
        (* the chunk in hand was popped from a queue and never made it
           into this slot's in-flight list, so [fail_slot] cannot see
           it *)
        Queue.push c requeue
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
  let next_work s =
    if not (Queue.is_empty pending.(s)) then Some (Queue.pop pending.(s))
    else if not (Queue.is_empty requeue) then Some (Queue.pop requeue)
    else Option.map Queue.pop (steal_victim s)
  in
  let recv_one s =
    match Mp_util.Workerpool.recv ~timeout_s:p.timeout_s wp s with
    | None -> fail_slot s
    | Some payload -> (
      match (Marshal.from_bytes payload 0 : response) with
      | exception _ -> fail_slot s
      | rs when rs.rs_ns <> ns -> fail_slot s
      | rs -> (
        match List.find_opt (fun c -> c.c_id = rs.rs_chunk) inflightq.(s) with
        | None -> fail_slot s (* a tag we never sent here *)
        | Some c -> (
          inflightq.(s) <- List.filter (fun x -> x != c) inflightq.(s);
          let t = now () in
          if inflightq.(s) = [] then begin
            flush_busy s t;
            deadline.(s) <- infinity
          end
          else deadline.(s) <- t +. p.timeout_s;
          match rs.rs_results with
          | Error _ ->
            (* executor-reported failure: deterministic — re-queueing
               would loop; the caller's in-process recovery takes
               these jobs *)
            decr live_left
          | Ok arr when Array.length arr = Array.length c.c_jobs ->
            Array.iteri (fun k i -> results.(i) <- Some arr.(k)) c.c_jobs;
            decr live_left;
            stats.(s).a_jobs <- stats.(s).a_jobs + Array.length c.c_jobs;
            stats.(s).a_chunks <- stats.(s).a_chunks + 1
          | Ok _ ->
            (* wrong cardinality: protocol violation by this slot; the
               chunk goes back to the queue *)
            Queue.push c requeue;
            fail_slot s)))
  in
  let rec loop () =
    if !live_left > 0 && Array.exists Fun.id live then begin
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
            if can_send then
              match next_work s with
              | Some c ->
                dispatch s c;
                fill ()
              | None -> ()
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
  (* every chunk ends done, failed or back in a queue, so no frame of
     this batch is left in flight for the next one *)
  loop ();
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
          sl_busy_s = a.a_busy;
          sl_wall_s = wall;
        })
    stats

let run_jobs p ~spec ~warmup ~measure ?(period = true) jobs =
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

let get_pool n =
  Mutex.protect global_lock (fun () ->
      match !global with
      | Some p ->
        (* grown under the dispatch lock, so a batch in flight never
           sees its slot indices shift *)
        Mutex.protect dispatch_lock (fun () ->
            Mp_util.Workerpool.ensure_size p.workers n);
        p
      | None ->
        let p = create_pool n in
        global := Some p;
        p)

let global_size () =
  match !global with Some p -> pool_size p | None -> 0
