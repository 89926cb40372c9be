(* Tests for the Mp_util.Parallel domain pool and the determinism
   contract of Machine.run_batch: pooled, memoized evaluation must be
   bit-identical to serial Machine.run. *)

open Mp_codegen
open Mp_sim

(* ----- pool ----------------------------------------------------------------- *)

let test_map_order () =
  let pool = Mp_util.Parallel.create 4 in
  let xs = List.init 100 Fun.id in
  let r = Mp_util.Parallel.map pool (fun x -> x * x) xs in
  Mp_util.Parallel.shutdown pool;
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs) r

let test_map_chunked () =
  let pool = Mp_util.Parallel.create 3 in
  let xs = List.init 50 Fun.id in
  (* chunks of 3 over 50 jobs: the last chunk is short *)
  Alcotest.(check int) "uneven chunks" 2
    (50 mod Mp_util.Parallel.auto_chunk ~jobs:50 ~workers:3);
  let r = Mp_util.Parallel.map_chunked pool (fun x -> x + 1) xs in
  Mp_util.Parallel.shutdown pool;
  Alcotest.(check (list int)) "chunked order" (List.map (( + ) 1) xs) r

let test_auto_chunk () =
  (* ceiling division toward ~8 chunks per worker; always >= 1 *)
  Alcotest.(check int) "tiny input" 1
    (Mp_util.Parallel.auto_chunk ~jobs:3 ~workers:4);
  Alcotest.(check int) "empty input" 1
    (Mp_util.Parallel.auto_chunk ~jobs:0 ~workers:4);
  Alcotest.(check int) "exact fit" 1
    (Mp_util.Parallel.auto_chunk ~jobs:32 ~workers:4);
  Alcotest.(check int) "one past the target rounds up" 2
    (Mp_util.Parallel.auto_chunk ~jobs:33 ~workers:4);
  Alcotest.(check int) "large batch" 4
    (Mp_util.Parallel.auto_chunk ~jobs:100 ~workers:4);
  (* the chunk count the size implies never exceeds ~8 per worker *)
  List.iter
    (fun (jobs, workers) ->
      let c = Mp_util.Parallel.auto_chunk ~jobs ~workers in
      Alcotest.(check bool) "chunk >= 1" true (c >= 1);
      let n_chunks = (jobs + c - 1) / c in
      Alcotest.(check bool) "at most 8 chunks per worker" true
        (n_chunks <= 8 * workers))
    [ (1, 1); (7, 3); (64, 4); (1000, 8); (12345, 6) ];
  (* the auto-tuned default still preserves order *)
  let pool = Mp_util.Parallel.create 3 in
  let xs = List.init 200 Fun.id in
  let r = Mp_util.Parallel.map_chunked pool (fun x -> x * 2) xs in
  Mp_util.Parallel.shutdown pool;
  Alcotest.(check (list int)) "auto-chunked order"
    (List.map (fun x -> x * 2) xs) r

let test_map_empty_and_size_one () =
  let pool = Mp_util.Parallel.create 1 in
  Alcotest.(check (list int)) "empty" []
    (Mp_util.Parallel.map pool (fun x -> x) []);
  Alcotest.(check (list int)) "size-1 pool is sequential" [ 2; 4 ]
    (Mp_util.Parallel.map pool (fun x -> 2 * x) [ 1; 2 ]);
  Mp_util.Parallel.shutdown pool

let test_cost_hint_preserves_order () =
  (* heavily skewed costs + a cost hint: execution is reordered
     (heaviest first, dealt across deques, tails stolen) but the result
     must still read exactly like List.map *)
  let pool = Mp_util.Parallel.create 4 in
  let xs = List.init 70 Fun.id in
  let cost x = float_of_int (if x mod 7 = 0 then 100 * x else 1) in
  let f x =
    (* skewed wall-clock too, so stealing actually happens *)
    if x mod 7 = 0 then Unix.sleepf 0.002;
    x * 3
  in
  let r = Mp_util.Parallel.map ~cost pool f xs in
  Alcotest.(check (list int)) "cost-hinted order" (List.map f xs) r;
  (* same with chunking (chunks of 3 over 70 jobs, the last one
     short): a chunk's cost is the sum of its members' *)
  Alcotest.(check int) "uneven chunks" 1
    (70 mod Mp_util.Parallel.auto_chunk ~jobs:70 ~workers:4);
  let rc = Mp_util.Parallel.map_chunked ~cost pool (fun x -> x + 1) xs in
  Alcotest.(check (list int)) "chunked cost-hinted order"
    (List.map (( + ) 1) xs) rc;
  Mp_util.Parallel.shutdown pool

exception Boom of int

let test_exception_propagation () =
  let pool = Mp_util.Parallel.create 4 in
  let raised =
    try
      ignore
        (Mp_util.Parallel.map pool
           (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
           (List.init 10 Fun.id));
      None
    with Boom n -> Some n
  in
  (* the lowest-indexed failure wins, deterministically *)
  Alcotest.(check (option int)) "lowest failure" (Some 0) raised;
  (* and the pool survives a failed batch *)
  Alcotest.(check (list int)) "pool alive after failure" [ 2; 3; 4 ]
    (Mp_util.Parallel.map pool (( + ) 1) [ 1; 2; 3 ]);
  Mp_util.Parallel.shutdown pool

let test_exception_in_stolen_task () =
  (* job 0 is the slowest and fails last in wall-clock terms; the other
     failing jobs are dealt to (and stolen across) other workers and
     fail first — the reported exception must still be job 0's, so
     failure propagation is deterministic under stealing *)
  let pool = Mp_util.Parallel.create 4 in
  let raised =
    try
      ignore
        (Mp_util.Parallel.map
           ~cost:(fun x -> float_of_int (100 - x))
           pool
           (fun x ->
             if x = 0 then Unix.sleepf 0.02;
             raise (Boom x))
           (List.init 12 Fun.id));
      None
    with Boom n -> Some n
  in
  Alcotest.(check (option int)) "job 0's exception wins" (Some 0) raised;
  Alcotest.(check (list int)) "pool alive after failure" [ 2; 3 ]
    (Mp_util.Parallel.map pool (( + ) 1) [ 1; 2 ]);
  Mp_util.Parallel.shutdown pool

let test_steal_counter () =
  (* a size-1 pool runs sequentially: nothing to steal *)
  let p1 = Mp_util.Parallel.create 1 in
  ignore (Mp_util.Parallel.map p1 (fun x -> x) (List.init 10 Fun.id));
  Alcotest.(check int) "sequential pool never steals" 0
    (Mp_util.Parallel.steal_count p1);
  Mp_util.Parallel.shutdown p1;
  (* the counter is monotone and the skewed batch's results are intact
     whatever the workers stole *)
  let p4 = Mp_util.Parallel.create 4 in
  let before = Mp_util.Parallel.steal_count p4 in
  let r =
    Mp_util.Parallel.map p4
      (fun x ->
        if x mod 4 = 0 then Unix.sleepf 0.004;
        x)
      (List.init 32 Fun.id)
  in
  Alcotest.(check (list int)) "results intact" (List.init 32 Fun.id) r;
  Alcotest.(check bool) "monotone" true
    (Mp_util.Parallel.steal_count p4 >= before);
  Mp_util.Parallel.shutdown p4

let test_nested_map_degrades () =
  (* a map issued from inside a worker must degrade to sequential
     execution instead of deadlocking on the pool's own queue. Alcotest
     is not domain-safe, so the jobs only report and the calling domain
     asserts. *)
  let pool = Mp_util.Parallel.create 2 in
  let r =
    Mp_util.Parallel.map pool
      (fun x ->
        ( Mp_util.Parallel.in_worker (),
          Mp_util.Parallel.map pool (fun y -> x * y) [ 1; 2; 3 ] ))
      [ 1; 2 ]
  in
  Mp_util.Parallel.shutdown pool;
  Alcotest.(check (list bool)) "inside worker" [ true; true ] (List.map fst r);
  Alcotest.(check (list (list int))) "nested results"
    [ [ 1; 2; 3 ]; [ 2; 4; 6 ] ]
    (List.map snd r)

let test_default_size_env () =
  Unix.putenv "MP_POOL_SIZE" "3";
  (* an explicit pin is honoured verbatim, even past the core count *)
  Alcotest.(check int) "env override" 3 (Mp_util.Parallel.default_size ());
  Unix.putenv "MP_POOL_SIZE" "not-a-number";
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument
       "MP_POOL_SIZE=\"not-a-number\": expected an integer >= 1")
    (fun () -> ignore (Mp_util.Parallel.default_size ()));
  Unix.putenv "MP_POOL_SIZE" "";
  (* without a pin the effective size never exceeds the detected core
     count — a default pool must not oversubscribe a small machine *)
  let cores = Mp_util.Parallel.detected_cores () in
  Alcotest.(check bool) "cores detected" true (cores >= 1);
  Alcotest.(check int) "unpinned = cores" cores
    (Mp_util.Parallel.default_size ());
  Alcotest.(check bool) "capped at cores" true
    (Mp_util.Parallel.default_size () <= cores)

(* A rejected MP_POOL_SIZE must not leave the global pool's lock held:
   the next [global] — and [shutdown_global] on every exit path — takes
   it again. *)
let test_global_after_rejected_size () =
  Mp_util.Parallel.shutdown_global ();
  Unix.putenv "MP_POOL_SIZE" "four";
  let raised =
    match Mp_util.Parallel.global () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Unix.putenv "MP_POOL_SIZE" "";
  Alcotest.(check bool) "rejected" true raised;
  Alcotest.(check int) "a pool after the variable is cleared"
    (Mp_util.Parallel.detected_cores ())
    (Mp_util.Parallel.size (Mp_util.Parallel.global ()))

(* ----- adaptive fan-out ----------------------------------------------------- *)

let test_effective_width () =
  let w = Mp_util.Parallel.effective_width in
  Alcotest.(check (float 1e-9)) "no hint: width = jobs" 5.
    (w None [| 1; 2; 3; 4; 5 |]);
  (* one dominant job: total/max ~ 1 — no schedule beats serial *)
  Alcotest.(check (float 1e-9)) "dominated batch" 1.002
    (w (Some float_of_int) [| 1000; 1; 1 |]);
  (* uniform costs: width = job count, capped by it *)
  Alcotest.(check (float 1e-9)) "uniform batch" 4.
    (w (Some (fun _ -> 3.)) [| 0; 0; 0; 0 |]);
  (* degenerate costs fall back to the job count *)
  Alcotest.(check (float 1e-9)) "all-zero costs" 3.
    (w (Some (fun _ -> 0.)) [| 1; 2; 3 |])

let test_worthwhile () =
  let w = Mp_util.Parallel.worthwhile in
  Alcotest.(check bool) "size-1 pool never fans out" false
    (w ~size:1 ~jobs:100 ~width:100.);
  Alcotest.(check bool) "a single job never fans out" false
    (w ~size:8 ~jobs:1 ~width:1.);
  Alcotest.(check bool) "width below 2 never fans out" false
    (w ~size:8 ~jobs:10 ~width:1.5);
  (* a width-6 batch on 8 workers still wins ~6x: the permissive
     threshold (0.25 jobs/core = width 2 on 8 workers) keeps it
     parallel *)
  Alcotest.(check bool) "moderate width fans out" true
    (w ~size:8 ~jobs:10 ~width:6.);
  (* width 3 on 16 workers is below 0.25 jobs/core (width 4) *)
  Alcotest.(check bool) "a too-thin batch runs serial" false
    (w ~size:16 ~jobs:4 ~width:3.)

let test_adaptive_fallback_counters () =
  let pool = Mp_util.Parallel.create 4 in
  (* a dominated batch (width ~1) runs sequentially in the caller *)
  let sf0 = Mp_util.Parallel.serial_fallbacks pool in
  let pb0 = Mp_util.Parallel.parallel_batches pool in
  let r =
    Mp_util.Parallel.map
      ~cost:(fun x -> if x = 0 then 1000. else 1.)
      pool (( + ) 1) [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "fallback results intact" [ 1; 2; 3 ] r;
  Alcotest.(check int) "counted as a serial fallback" (sf0 + 1)
    (Mp_util.Parallel.serial_fallbacks pool);
  Alcotest.(check int) "not counted as parallel" pb0
    (Mp_util.Parallel.parallel_batches pool);
  (* a wide uniform batch fans out *)
  let pb1 = Mp_util.Parallel.parallel_batches pool in
  let xs = List.init 16 Fun.id in
  let r2 = Mp_util.Parallel.map pool (fun x -> 2 * x) xs in
  Alcotest.(check (list int)) "parallel results intact"
    (List.map (fun x -> 2 * x) xs) r2;
  Alcotest.(check int) "counted as parallel" (pb1 + 1)
    (Mp_util.Parallel.parallel_batches pool);
  (* a dominating cost hint forces the same batch serial —
     bit-identical *)
  let dominated x = if x = 0 then 1e9 else 1. in
  let sf1 = Mp_util.Parallel.serial_fallbacks pool in
  let r3 = Mp_util.Parallel.map ~cost:dominated pool (fun x -> 2 * x) xs in
  Alcotest.(check (list int)) "forced-serial results identical" r2 r3;
  Alcotest.(check int) "dominated batch counted as a fallback" (sf1 + 1)
    (Mp_util.Parallel.serial_fallbacks pool);
  (* ... and map_chunked threads the hint through *)
  let sf2 = Mp_util.Parallel.serial_fallbacks pool in
  let r4 =
    Mp_util.Parallel.map_chunked ~cost:dominated pool (fun x -> 2 * x) xs
  in
  Alcotest.(check (list int)) "chunked forced-serial identical" r2 r4;
  Alcotest.(check bool) "chunked fallback counted" true
    (Mp_util.Parallel.serial_fallbacks pool > sf2);
  Mp_util.Parallel.shutdown pool;
  (* a size-1 pool books every multi-job batch as a fallback *)
  let p1 = Mp_util.Parallel.create 1 in
  let sf = Mp_util.Parallel.serial_fallbacks p1 in
  ignore (Mp_util.Parallel.map p1 Fun.id [ 1; 2; 3 ]);
  Alcotest.(check int) "size-1 pool counts fallbacks" (sf + 1)
    (Mp_util.Parallel.serial_fallbacks p1);
  Alcotest.(check int) "size-1 pool never parallel" 0
    (Mp_util.Parallel.parallel_batches p1);
  Mp_util.Parallel.shutdown p1

(* ----- run_batch determinism ------------------------------------------------ *)

let l1 = [ (Mp_uarch.Cache_geometry.L1, 1.0) ]

let mono a mnemonic =
  let ins = Arch.find_instruction a mnemonic in
  let synth = Synthesizer.create ~name:("par-" ^ mnemonic) a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:256);
  Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
  if Mp_isa.Instruction.is_memory ins then
    Synthesizer.add_pass synth (Passes.memory_model l1);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  Synthesizer.synthesize ~seed:77 synth

let mixed_jobs a =
  let progs = List.map (mono a) [ "mullw"; "lwz"; "xvmaddadp" ] in
  let configs =
    [ Mp_uarch.Uarch_def.config ~cores:1 ~smt:1 a.Arch.uarch;
      Mp_uarch.Uarch_def.config ~cores:4 ~smt:2 a.Arch.uarch ]
  in
  let jobs =
    List.concat_map (fun c -> List.map (fun p -> (c, p)) progs) configs
  in
  (* duplicates exercise the measurement cache on the batch side *)
  jobs @ [ List.hd jobs; List.nth jobs 3 ]

let check_identical msg serial batch =
  Alcotest.(check int) (msg ^ ": same length") (List.length serial)
    (List.length batch);
  List.iter2
    (fun (s : Measurement.t) (b : Measurement.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s bit-identical" msg s.Measurement.program)
        true
        (compare s b = 0))
    serial batch

let test_run_batch_matches_serial () =
  let a = Arch.power7 () in
  let jobs = mixed_jobs a in
  (* serial reference: caching off, plain Machine.run, job at a time *)
  let serial_machine = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run serial_machine c p) jobs in
  (* pooled run with the cache on, forced multi-domain pool *)
  let batch_machine = Machine.create a.Arch.uarch in
  let pool = Mp_util.Parallel.create 4 in
  let batch = Machine.run_batch ~pool batch_machine jobs in
  Mp_util.Parallel.shutdown pool;
  check_identical "pool-4 vs serial" serial batch;
  (* and a second pass over the same machine: all cache hits *)
  let again = Machine.run_batch batch_machine jobs in
  check_identical "cache hits vs serial" serial again;
  match Machine.measurement_cache batch_machine with
  | None -> Alcotest.fail "expected a cache on the batch machine"
  | Some c ->
    let s = Measurement_cache.stats c in
    Alcotest.(check bool) "hits recorded" true
      (s.Measurement_cache.hits > 0)

let test_run_batch_pool_size_one () =
  let a = Arch.power7 () in
  let jobs = mixed_jobs a in
  let m1 = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run m1 c p) jobs in
  let m2 = Machine.create ~cache:false a.Arch.uarch in
  let pool = Mp_util.Parallel.create 1 in
  let batch = Machine.run_batch ~pool m2 jobs in
  Mp_util.Parallel.shutdown pool;
  check_identical "pool-1 vs serial" serial batch

(* ----- worker pool (transport) ---------------------------------------------- *)

(* /bin/cat echoes bytes verbatim and the framing is symmetric, so a
   cat worker is a perfect protocol loopback for the transport layer. *)
let cat_pool n = Mp_util.Workerpool.create ~prog:"/bin/cat" n

let test_procpool_echo () =
  let p = cat_pool 2 in
  let payload = Bytes.of_string "hello frames" in
  Alcotest.(check bool) "send 0" true (Mp_util.Workerpool.send p 0 payload);
  Alcotest.(check bool) "send 1" true (Mp_util.Workerpool.send p 1 payload);
  (match Mp_util.Workerpool.recv ~timeout_s:10.0 p 0 with
   | Some b ->
     Alcotest.(check string) "echo 0" "hello frames" (Bytes.to_string b)
   | None -> Alcotest.fail "worker 0 did not echo");
  (match Mp_util.Workerpool.recv ~timeout_s:10.0 p 1 with
   | Some b ->
     Alcotest.(check string) "echo 1" "hello frames" (Bytes.to_string b)
   | None -> Alcotest.fail "worker 1 did not echo");
  Mp_util.Workerpool.shutdown p

let test_procpool_timeout_respawn () =
  let p = cat_pool 1 in
  Alcotest.(check bool) "slot opened" true (Mp_util.Workerpool.open_slot p 0);
  let r0 = Mp_util.Workerpool.reopen_count () in
  (* nothing was sent: a bounded recv must time out and reap the slot *)
  Alcotest.(check bool) "timeout recv" true
    (Mp_util.Workerpool.recv ~timeout_s:0.2 p 0 = None);
  Alcotest.(check bool) "slot reaped" true (Mp_util.Workerpool.pid p 0 = None);
  (* the next send respawns transparently and the exchange works again *)
  let payload = Bytes.of_string "back" in
  Alcotest.(check bool) "send respawns" true
    (Mp_util.Workerpool.send p 0 payload);
  Alcotest.(check bool) "respawn counted" true
    (Mp_util.Workerpool.reopen_count () > r0);
  (match Mp_util.Workerpool.recv ~timeout_s:10.0 p 0 with
   | Some b ->
     Alcotest.(check string) "echo after respawn" "back" (Bytes.to_string b)
   | None -> Alcotest.fail "respawned worker did not echo");
  Mp_util.Workerpool.shutdown p

let test_procpool_truncated_frame () =
  let p = cat_pool 1 in
  (* a header promising 64 bytes followed by only 3 and worker death:
     the reader must fail cleanly, not hang or surface a short frame *)
  let junk = Bytes.create 7 in
  Bytes.set_int32_be junk 0 64l;
  Bytes.blit_string "abc" 0 junk 4 3;
  Alcotest.(check bool) "raw bytes written" true
    (Mp_util.Workerpool.send_raw p 0 junk);
  Mp_util.Workerpool.kill p 0;
  Alcotest.(check bool) "truncated frame rejected" true
    (Mp_util.Workerpool.recv ~timeout_s:10.0 p 0 = None);
  Alcotest.(check bool) "slot reaped after kill" true
    (Mp_util.Workerpool.pid p 0 = None);
  Mp_util.Workerpool.shutdown p

let test_procpool_ensure_size () =
  let p = cat_pool 1 in
  let r0 = Mp_util.Workerpool.reopen_count () in
  Mp_util.Workerpool.ensure_size p 3;
  Alcotest.(check int) "grown" 3 (Mp_util.Workerpool.size p);
  let payload = Bytes.of_string "new slot" in
  Alcotest.(check bool) "lazy spawn on send" true
    (Mp_util.Workerpool.send p 2 payload);
  (match Mp_util.Workerpool.recv ~timeout_s:10.0 p 2 with
   | Some b -> Alcotest.(check string) "echo" "new slot" (Bytes.to_string b)
   | None -> Alcotest.fail "grown slot did not echo");
  Alcotest.(check int) "lazy spawn is not a respawn" r0
    (Mp_util.Workerpool.reopen_count ());
  Mp_util.Workerpool.shutdown p

let test_slow_reader_send_idles () =
  (* a worker that starts draining its stdin only after half a second:
     a send without a deadline must wait for it in select, not spin on
     EAGAIN for the whole wait *)
  let p =
    Mp_util.Workerpool.create ~prog:"/bin/sh"
      ~args:[ "-c"; "sleep 0.5; exec cat >/dev/null" ] 1
  in
  Alcotest.(check bool) "slot opened" true (Mp_util.Workerpool.open_slot p 0);
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () and w0 = Unix.gettimeofday () in
  Alcotest.(check bool) "4 MiB frame sent" true
    (Mp_util.Workerpool.send p 0 (Bytes.make (4 lsl 20) 'x'));
  let used = cpu () -. c0 and waited = Unix.gettimeofday () -. w0 in
  Mp_util.Workerpool.shutdown p;
  Alcotest.(check bool)
    (Printf.sprintf "send waited for the reader (%.2f s)" waited)
    true (waited > 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "CPU while waiting under 0.1 s (%.3f s)" used)
    true (used < 0.1)

(* A slot whose program does not exist yet: the failed spawn opens a
   0.05 s backoff window in which sends fast-fail without another
   attempt, even once the program is there; after the window the next
   send spawns it. *)
let test_failed_spawn_backs_off () =
  let prog = Tmp_dir.fresh ~prefix:"mp_backoff" "cat" in
  let p = Mp_util.Workerpool.create ~prog 1 in
  Fun.protect
    ~finally:(fun () -> Mp_util.Workerpool.shutdown p)
    (fun () ->
      let payload = Bytes.of_string "request" in
      let t0 = Unix.gettimeofday () in
      let sent = Mp_util.Workerpool.send p 0 payload in
      Unix.symlink "/bin/cat" prog;
      let resent = Mp_util.Workerpool.send p 0 payload in
      (* the backoff window opens when the first spawn fails and lasts
         0.05 s; if both sends finished within 0.05 s of the start, the
         second one certainly fell inside it *)
      let in_window = Unix.gettimeofday () -. t0 < 0.05 in
      Alcotest.(check bool) "send to a missing program refused" false sent;
      if in_window then
        Alcotest.(check bool) "resend inside the backoff window refused"
          false resent;
      Unix.sleepf 0.06;
      Alcotest.(check bool) "send after the window spawns" true
        (Mp_util.Workerpool.send p 0 payload);
      match Mp_util.Workerpool.recv ~timeout_s:10.0 p 0 with
      | Some b -> Alcotest.(check string) "echo" "request" (Bytes.to_string b)
      | None -> Alcotest.fail "worker spawned after the window did not echo")

(* ----- multi-process run_batch ---------------------------------------------- *)

(* The shard workers are re-execs of this very test binary (Machine's
   module initializer turns a flagged process into a frame loop), so
   these tests exercise the full self-exec protocol end to end. *)

let test_run_batch_procs_matches_serial () =
  let a = Arch.power7 () in
  let jobs = mixed_jobs a in
  let m1 = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run m1 c p) jobs in
  let rec0 = Machine.jobs_recovered () in
  (* one worker subprocess, then two: both must be bit-identical *)
  let m2 = Machine.create ~cache:false a.Arch.uarch in
  check_identical "procs-1 vs serial" serial
    (Machine.run_batch ~procs:1 m2 jobs);
  let m3 = Machine.create ~cache:false a.Arch.uarch in
  check_identical "procs-2 vs serial" serial
    (Machine.run_batch ~procs:2 m3 jobs);
  Alcotest.(check int) "no recoveries in a healthy run" rec0
    (Machine.jobs_recovered ());
  Alcotest.(check bool) "shared pool live" true
    (Mp_sim.Shard_exec.global_size () >= 2)

let test_run_batch_worker_crash_recovers () =
  let a = Arch.power7 () in
  let jobs = mixed_jobs a in
  let m1 = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run m1 c p) jobs in
  let w = Mp_sim.Shard_exec.(workers (get_pool 2)) in
  let rec0 = Machine.jobs_recovered () in
  (* kill every worker mid-pool, exactly like a crash: each shard's
     exchange fails and every job must be recovered in-process *)
  List.iter
    (fun i ->
      Alcotest.(check bool) "worker spawned" true
        (Mp_util.Workerpool.open_slot w i);
      Mp_util.Workerpool.kill w i)
    [ 0; 1 ];
  let m2 = Machine.create ~cache:false a.Arch.uarch in
  let batch = Machine.run_batch ~procs:2 m2 jobs in
  check_identical "crashed workers vs serial" serial batch;
  Alcotest.(check bool) "recoveries counted" true
    (Machine.jobs_recovered () > rec0);
  (* the next dispatch finds reaped slots and respawns them *)
  let m3 = Machine.create ~cache:false a.Arch.uarch in
  check_identical "respawned pool vs serial" serial
    (Machine.run_batch ~procs:2 m3 jobs)

(* A malformed sharding knob stops the batch before its first job: the
   exception names the variable, and the machine's cache saw no
   lookup. *)
let check_batch_rejects var value () =
  let a = Arch.power7 () in
  let m = Machine.create ~replay:false a.Arch.uarch in
  Unix.putenv var value;
  let outcome =
    Fun.protect
      ~finally:(fun () -> Unix.putenv var "")
      (fun () ->
        match Machine.run_batch m (mixed_jobs a) with
        | _ -> "ran in-process"
        | exception Invalid_argument msg -> msg)
  in
  Alcotest.(check bool)
    (Printf.sprintf "rejection names %s (got %S)" var outcome)
    true
    (String.starts_with ~prefix:(var ^ "=") outcome);
  let s = Measurement_cache.stats (Option.get (Machine.measurement_cache m)) in
  Alcotest.(check int) "no job ran" 0
    (s.Measurement_cache.hits + s.Measurement_cache.misses)

(* ----- dynamic shard scheduler ----------------------------------------------- *)

let test_chunk_heuristic () =
  (* each slot's pipeline window refills ~4 times over a balanced batch *)
  Alcotest.(check int) "balanced batch" 4
    (Shard_exec.default_chunk_jobs ~jobs:96 ~slots:3 ~inflight:2);
  Alcotest.(check int) "thin batch floors at 1" 1
    (Shard_exec.default_chunk_jobs ~jobs:5 ~slots:8 ~inflight:2);
  Alcotest.(check int) "empty batch" 1
    (Shard_exec.default_chunk_jobs ~jobs:0 ~slots:2 ~inflight:2);
  Alcotest.(check int) "degenerate pool" 24
    (Shard_exec.default_chunk_jobs ~jobs:96 ~slots:0 ~inflight:0)

(* A deliberately skewed batch: one heavy program appearing under four
   configurations — the config-blind placement fold lands all four on
   the same slot — plus three light programs. The width (total/max cost)
   still clears the adaptive fan-out threshold, so the batch genuinely
   dispatches to the worker pool. *)
let sized_prog a ~size ~seed ~name mnemonic =
  let ins = Arch.find_instruction a mnemonic in
  let synth = Synthesizer.create ~name a in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  Synthesizer.synthesize ~seed synth

let skewed_jobs a =
  let heavy = sized_prog a ~size:256 ~seed:11 ~name:"dyn-heavy" "fadd" in
  let light i m = sized_prog a ~size:64 ~seed:(21 + i) ~name:("dyn-light-" ^ m) m in
  let cfg c s = Mp_uarch.Uarch_def.config ~cores:c ~smt:s a.Arch.uarch in
  List.map (fun (c, s) -> (cfg c s, heavy)) [ (2, 4); (4, 2); (8, 1); (4, 4) ]
  @ List.mapi (fun i m -> (cfg 1 1, light i m)) [ "fadd"; "mullw"; "xvmaddadp" ]

let test_dynamic_skewed_matches_serial () =
  let a = Arch.power7 () in
  let jobs = skewed_jobs a in
  let m1 = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run m1 c p) jobs in
  let rec0 = Machine.jobs_recovered () in
  Shard_exec.reset_slot_stats ();
  let m2 = Machine.create ~cache:false a.Arch.uarch in
  check_identical "dynamic vs serial" serial
    (Machine.run_batch ~procs:2 m2 jobs);
  Alcotest.(check int) "no recoveries in a healthy run" rec0
    (Machine.jobs_recovered ());
  (* per-slot telemetry: both subprocess slots got a row, the jobs
     they served cover the whole batch exactly once, and busy time sits
     inside the batch's wall time *)
  let stats = Shard_exec.slot_stats () in
  Alcotest.(check (list string)) "one row per slot" [ "proc:0"; "proc:1" ]
    (List.map fst stats);
  List.iter
    (fun (label, s) ->
      Alcotest.(check bool) (label ^ ": busy within wall") true
        Shard_exec.(s.sl_busy_s >= 0. && s.sl_busy_s <= s.sl_wall_s +. 1e-9))
    stats;
  Alcotest.(check int) "every job accepted exactly once" (List.length jobs)
    (List.fold_left (fun n (_, s) -> n + s.Shard_exec.sl_jobs) 0 stats)

let test_dynamic_crash_requeues () =
  let a = Arch.power7 () in
  let jobs = skewed_jobs a in
  let m1 = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run m1 c p) jobs in
  let w = Shard_exec.(workers (get_pool 2)) in
  let rec0 = Machine.jobs_recovered () in
  (* SIGKILL one of the two workers: under the dynamic scheduler the
     dead slot's chunks re-enter the shared queue and the surviving
     worker completes them — no coordinator fallback, bit-identical *)
  Alcotest.(check bool) "worker spawned" true (Mp_util.Workerpool.open_slot w 0);
  Mp_util.Workerpool.kill w 0;
  let m2 = Machine.create ~cache:false a.Arch.uarch in
  check_identical "one dead worker vs serial" serial
    (Machine.run_batch ~procs:2 m2 jobs);
  Alcotest.(check int) "requeue absorbed the loss in-pool" rec0
    (Machine.jobs_recovered ());
  (* the next dispatch respawns the reaped slot transparently *)
  let m3 = Machine.create ~cache:false a.Arch.uarch in
  check_identical "respawned pool vs serial" serial
    (Machine.run_batch ~procs:2 m3 jobs)

(* A job whose SMT thread starves raises in the worker: its chunk
   fails at once (an executor error is deterministic, so no other slot
   retries it), the coordinator re-runs exactly that job in-process and
   raises the same failure, and the slots stay up — the next batch on
   the pool is served in full. *)
let test_executor_error_fails_chunk () =
  let a = Arch.power7 () in
  let jobs = skewed_jobs a in
  let cfg = Mp_uarch.Uarch_def.config ~cores:1 ~smt:2 a.Arch.uarch in
  let starved = sized_prog a ~size:64 ~seed:5 ~name:"dyn-starved" "dadd" in
  let m1 = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run m1 c p) jobs in
  ignore (Shard_exec.get_pool 2);
  let rec0 = Machine.jobs_recovered () in
  let sent0 = Mp_util.Workerpool.frames_sent () in
  let reopens0 = Mp_util.Workerpool.reopen_count () in
  let m2 = Machine.create ~cache:false a.Arch.uarch in
  (match Machine.run_batch ~procs:2 m2 (jobs @ [ (cfg, starved) ]) with
   | _ -> Alcotest.fail "a starved job returned a measurement"
   | exception Failure msg ->
     Alcotest.(check bool)
       (Printf.sprintf "starvation re-raised in-process (%s)" msg)
       true
       (String.starts_with ~prefix:"Core_sim: thread" msg));
  Alcotest.(check bool) "the batch was sharded" true
    (Mp_util.Workerpool.frames_sent () > sent0);
  Alcotest.(check int) "only the failed chunk's job recovered" (rec0 + 1)
    (Machine.jobs_recovered ());
  let m3 = Machine.create ~cache:false a.Arch.uarch in
  check_identical "next batch vs serial" serial
    (Machine.run_batch ~procs:2 m3 jobs);
  Alcotest.(check int) "nothing recovered afterwards" (rec0 + 1)
    (Machine.jobs_recovered ());
  Alcotest.(check int) "no slot respawned" reopens0
    (Mp_util.Workerpool.reopen_count ())

let () =
  Alcotest.run "mp_parallel"
    [
      ("pool",
       [ Alcotest.test_case "map order" `Quick test_map_order;
         Alcotest.test_case "map chunked" `Quick test_map_chunked;
         Alcotest.test_case "auto chunk" `Quick test_auto_chunk;
         Alcotest.test_case "empty and size one" `Quick
           test_map_empty_and_size_one;
         Alcotest.test_case "cost hint preserves order" `Quick
           test_cost_hint_preserves_order;
         Alcotest.test_case "exception propagation" `Quick
           test_exception_propagation;
         Alcotest.test_case "exception in stolen task" `Quick
           test_exception_in_stolen_task;
         Alcotest.test_case "steal counter" `Quick test_steal_counter;
         Alcotest.test_case "nested map degrades" `Quick
           test_nested_map_degrades;
         Alcotest.test_case "MP_POOL_SIZE" `Quick test_default_size_env;
         Alcotest.test_case "global after a rejected MP_POOL_SIZE" `Quick
           test_global_after_rejected_size ]);
      ("adaptive fan-out",
       [ Alcotest.test_case "effective width" `Quick test_effective_width;
         Alcotest.test_case "worthwhile predicate" `Quick test_worthwhile;
         Alcotest.test_case "fallback counters" `Quick
           test_adaptive_fallback_counters ]);
      ("run_batch",
       [ Alcotest.test_case "bit-identical vs serial" `Quick
           test_run_batch_matches_serial;
         Alcotest.test_case "pool of one" `Quick
           test_run_batch_pool_size_one ]);
      ("procpool",
       [ Alcotest.test_case "echo round-trip" `Quick test_procpool_echo;
         Alcotest.test_case "timeout reaps, send respawns" `Quick
           test_procpool_timeout_respawn;
         Alcotest.test_case "truncated frame" `Quick
           test_procpool_truncated_frame;
         Alcotest.test_case "ensure_size lazy spawn" `Quick
           test_procpool_ensure_size;
         Alcotest.test_case "slow reader send idles" `Quick
           test_slow_reader_send_idles;
         Alcotest.test_case "failed spawn backs off" `Quick
           test_failed_spawn_backs_off ]);
      ("multi-process",
       [ Alcotest.test_case "procs bit-identical vs serial" `Quick
           test_run_batch_procs_matches_serial;
         Alcotest.test_case "worker crash recovers" `Quick
           test_run_batch_worker_crash_recovers;
         Alcotest.test_case "malformed MP_PROCS rejected" `Quick
           (check_batch_rejects "MP_PROCS" "two") ]);
      ("dynamic scheduler",
       [ Alcotest.test_case "chunk-size heuristic" `Quick test_chunk_heuristic;
         Alcotest.test_case "skewed batch bit-identical" `Quick
           test_dynamic_skewed_matches_serial;
         Alcotest.test_case "SIGKILL mid-batch requeues in-pool" `Quick
           test_dynamic_crash_requeues;
         Alcotest.test_case "executor error fails its chunk" `Quick
           test_executor_error_fails_chunk ]);
    ]
