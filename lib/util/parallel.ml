(* Work-stealing domain pool. Each worker owns a deque; batch
   submission deals jobs round-robin across the deques (heaviest first
   when the caller supplies a cost hint), owners take from the front of
   their own deque and idle workers steal from the back of a victim's —
   the two ends of a Chase-Lev deque, here guarded by a per-deque mutex
   because jobs are whole simulations (milliseconds to seconds each)
   and queue traffic is never the bottleneck. Stealing is what keeps
   domains busy at batch tails, where one 8c-SMT4 simulation can
   outlast a dozen 1c-SMT1 ones. *)

module Deque = struct
  type 'a t = {
    mutable buf : 'a option array;
    mutable head : int;  (* index of the front element *)
    mutable len : int;
    lock : Mutex.t;
  }

  let create () =
    { buf = Array.make 16 None; head = 0; len = 0; lock = Mutex.create () }

  let grow d =
    let n = Array.length d.buf in
    let bigger = Array.make (2 * n) None in
    for i = 0 to d.len - 1 do
      bigger.(i) <- d.buf.((d.head + i) mod n)
    done;
    d.buf <- bigger;
    d.head <- 0

  let push_back d x =
    Mutex.lock d.lock;
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- Some x;
    d.len <- d.len + 1;
    Mutex.unlock d.lock

  (* owner end: front — cost-sorted batches start their heaviest jobs
     first *)
  let pop_front d =
    Mutex.lock d.lock;
    let r =
      if d.len = 0 then None
      else begin
        let x = d.buf.(d.head) in
        d.buf.(d.head) <- None;
        d.head <- (d.head + 1) mod Array.length d.buf;
        d.len <- d.len - 1;
        x
      end
    in
    Mutex.unlock d.lock;
    r

  (* thief end: back *)
  let pop_back d =
    Mutex.lock d.lock;
    let r =
      if d.len = 0 then None
      else begin
        let i = (d.head + d.len - 1) mod Array.length d.buf in
        let x = d.buf.(i) in
        d.buf.(i) <- None;
        d.len <- d.len - 1;
        x
      end
    in
    Mutex.unlock d.lock;
    r
end

type t = {
  size : int;
  lock : Mutex.t;  (* guards epoch/stop and the idle wait *)
  nonempty : Condition.t;
  deques : (unit -> unit) Deque.t array;
  mutable epoch : int;  (* bumped on every submission *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  steals : int Atomic.t;
  (* adaptive-mode telemetry: batches (>= 2 jobs) that fanned out vs
     ran sequentially — fallback decision, nesting, or size 1 *)
  par_batches : int Atomic.t;
  seq_batches : int Atomic.t;
}

let in_worker_key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_worker_key

(* own deque first, then sweep the others starting just past [me] so
   thieves spread over victims instead of all hammering worker 0 *)
let find_work pool me =
  match Deque.pop_front pool.deques.(me) with
  | Some _ as j -> j
  | None ->
    let n = Array.length pool.deques in
    let rec scan k =
      if k = n then None
      else
        match Deque.pop_back pool.deques.((me + k) mod n) with
        | Some _ as j ->
          Atomic.incr pool.steals;
          j
        | None -> scan (k + 1)
    in
    scan 1

let worker_loop pool me =
  Domain.DLS.set in_worker_key true;
  let rec loop () =
    let seen =
      Mutex.lock pool.lock;
      let e = pool.epoch in
      Mutex.unlock pool.lock;
      e
    in
    match find_work pool me with
    | Some job ->
      job ();
      loop ()
    | None ->
      Mutex.lock pool.lock;
      while pool.epoch = seen && not pool.stop do
        Condition.wait pool.nonempty pool.lock
      done;
      let stopping = pool.stop in
      Mutex.unlock pool.lock;
      if stopping then
        (* drain whatever is still queued, then exit *)
        match find_work pool me with
        | Some job ->
          job ();
          loop ()
        | None -> ()
      else loop ()
  in
  loop ()

let create n =
  let size = max 1 n in
  let pool =
    {
      size;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      deques = Array.init size (fun _ -> Deque.create ());
      epoch = 0;
      stop = false;
      workers = [];
      steals = Atomic.make 0;
      par_batches = Atomic.make 0;
      seq_batches = Atomic.make 0;
    }
  in
  if size > 1 then
    pool.workers <-
      List.init size (fun i -> Domain.spawn (fun () -> worker_loop pool i));
  pool

let size t = t.size

let steal_count t = Atomic.get t.steals

let parallel_batches t = Atomic.get t.par_batches

let serial_fallbacks t = Atomic.get t.seq_batches

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join workers

(* Left-to-right by construction — [List.map]'s application order is
   unspecified, and callers rely on jobs running in list order when we
   degrade to sequential (e.g. RNG-consuming setup code). *)
let seq_map f xs = List.rev (List.rev_map f xs)

(* Execution order of a batch: heaviest-first when [cost] is given
   (descending cost, ties by index so scheduling is reproducible),
   submission order otherwise. Pure scheduling hint — results are
   indexed, so the output order never depends on it. *)
let schedule_order cost input =
  let n = Array.length input in
  match cost with
  | None -> Array.init n Fun.id
  | Some c ->
    let keyed = Array.mapi (fun i x -> (c x, i)) input in
    Array.sort
      (fun (ca, ia) (cb, ib) ->
        match compare (cb : float) ca with 0 -> compare ia ib | d -> d)
      keyed;
    Array.map snd keyed

(* ----- adaptive fan-out/serial decision ---------------------------------- *)

(* How much parallelism a batch actually carries: at most one core's
   worth per job, and — when the caller supplies cost hints — at most
   total/max "largest-job equivalents", because no schedule finishes
   before the largest job does. A batch of 90 equal jobs has width 90;
   a batch of 90 jobs where one dwarfs the rest has width ~1 and gains
   nothing from 8 domains. *)
let effective_width cost input =
  let n = Array.length input in
  match cost with
  | None -> float_of_int n
  | Some c ->
    let total = ref 0.0 in
    let mx = ref 0.0 in
    Array.iter
      (fun x ->
        let v = Float.max 0.0 (c x) in
        total := !total +. v;
        if v > !mx then mx := v)
      input;
    if !mx <= 0.0 then float_of_int n
    else Float.min (float_of_int n) (!total /. !mx)

(* Fan out only when the batch can amortise domain wakeup/steal
   overhead: at least two jobs of comparable weight ([width >= 2] —
   below that, the batch is one dominant job plus crumbs and the
   dominant job bounds wall-clock anyway), and [min_jobs_per_core]
   largest-job equivalents per worker. That threshold is deliberately
   permissive: speedup is bounded by the batch's width, not the pool's
   size, so a width-6 batch on 8 workers still wins ~6x and must fan
   out; the per-core criterion only catches batches so thin that most
   domains would wake up for nothing. Serial execution of an unworthy
   batch is bit-identical by the map contract, so the decision is pure
   scheduling. *)
let min_jobs_per_core = 0.25

let worthwhile ~size ~jobs ~width =
  size > 1 && jobs >= 2 && width >= 2.0
  && width >= min_jobs_per_core *. float_of_int size

let map ?cost pool f xs =
  let forced_seq = pool.size <= 1 || pool.workers = [] || in_worker () in
  let input = Array.of_list xs in
  let n = Array.length input in
  let fan_out =
    (not forced_seq)
    && worthwhile ~size:pool.size ~jobs:n ~width:(effective_width cost input)
  in
  if n >= 2 then
    Atomic.incr (if fan_out then pool.par_batches else pool.seq_batches);
  if not fan_out then seq_map f xs
  else begin
    if n = 0 then []
    else begin
      let results = Array.make n None in
      let failure = ref None in
      let remaining = ref n in
      let done_lock = Mutex.create () in
      let done_cond = Condition.create () in
      let job i () =
        (try results.(i) <- Some (f input.(i))
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock done_lock;
           (* keep the lowest-indexed failure so re-raising is
              deterministic regardless of worker interleaving and of
              which domain a failing job was stolen by *)
           (match !failure with
            | Some (j, _, _) when j < i -> ()
            | _ -> failure := Some (i, e, bt));
           Mutex.unlock done_lock);
        Mutex.lock done_lock;
        decr remaining;
        if !remaining = 0 then Condition.broadcast done_cond;
        Mutex.unlock done_lock
      in
      let order = schedule_order cost input in
      Mutex.lock pool.lock;
      (* deal round-robin: with a cost hint, the k heaviest jobs land
         one per worker; whatever imbalance remains is stolen away *)
      Array.iteri
        (fun k idx -> Deque.push_back pool.deques.(k mod pool.size) (job idx))
        order;
      pool.epoch <- pool.epoch + 1;
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.lock;
      Mutex.lock done_lock;
      while !remaining > 0 do
        Condition.wait done_cond done_lock
      done;
      Mutex.unlock done_lock;
      match !failure with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
        Array.to_list
          (Array.map
             (function Some r -> r | None -> assert false)
             results)
    end
  end

let chunks size xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* Auto-tuned chunk size: enough chunks that work stealing can
   rebalance a skewed tail (~8 per worker), computed by ceiling
   division so the chunk count never overshoots that target and small
   inputs degrade to one element per chunk (i.e. plain [map]). The
   granularity/overhead trade-off: more chunks help the steal scheduler
   only up to a few per worker, while each extra chunk costs one
   deque round-trip — 8 sits past the balance knee for the skewed
   simulation batches this pool runs, and stays cheap because chunks
   are whole jobs, not cycles. *)
let auto_chunk ~jobs ~workers =
  if jobs <= 0 then 1
  else
    let target = 8 * max 1 workers in
    (jobs + target - 1) / target

let map_chunked ?cost pool f xs =
  let n = List.length xs in
  if n = 0 then []
  else begin
    let chunk = auto_chunk ~jobs:n ~workers:pool.size in
    if chunk <= 1 then map ?cost pool f xs
    else
      let chunk_cost =
        Option.map
          (fun c ch -> List.fold_left (fun acc x -> acc +. c x) 0.0 ch)
          cost
      in
      List.concat
        (map ?cost:chunk_cost pool
           (fun c -> seq_map f c)
           (chunks chunk xs))
  end

let detected_cores () = Domain.recommended_domain_count ()

(* An explicit MP_POOL_SIZE is honoured verbatim (deliberate pinning,
   e.g. oversubscription experiments); otherwise the pool gets one
   worker per detected core, never more — the pathology behind a
   4-worker pool "achieving" a 0.3x speedup on one core. *)
let default_size () =
  match Env.int "MP_POOL_SIZE" ~min:1 with
  | Some n -> n
  | None -> detected_cores ()

let global_pool = ref None
let global_lock = Mutex.create ()

(* a rejected MP_POOL_SIZE raises inside the critical section;
   [Mutex.protect] releases the lock that [shutdown_global] on every
   exit path takes again *)
let global () =
  Mutex.protect global_lock (fun () ->
      match !global_pool with
      | Some p -> p
      | None ->
        let p = create (default_size ()) in
        global_pool := Some p;
        at_exit (fun () -> shutdown p);
        p)

(* Explicit counterpart to the at_exit hook: exit paths that want the
   domains joined *before* the process tears anything else down (the
   CLI and the bench harness) call this; [shutdown] is idempotent, so
   the at_exit firing afterwards is harmless. *)
let shutdown_global () =
  Mutex.lock global_lock;
  let p = !global_pool in
  global_pool := None;
  Mutex.unlock global_lock;
  Option.iter shutdown p
