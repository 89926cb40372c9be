(* Tests for the disk layer behind the measurement cache and the replay
   store: one append-only segment per process per store, checksummed
   frames, the in-memory index and its refresh on a miss, and pruning
   next to a live writer. Every failure mode must end in a
   recomputation that is bit-identical to the original, never in an
   exception or a wrong value. *)

open Mp_codegen
open Mp_sim

let arch () = Arch.power7 ()

let mono a mnemonic =
  let synth = Synthesizer.create ~name:("d-" ^ mnemonic) a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:256);
  Synthesizer.add_pass synth
    (Passes.fill_sequence [ Arch.find_instruction a mnemonic ]);
  Synthesizer.synthesize ~seed:7 synth

let config a = Mp_uarch.Uarch_def.config ~cores:1 ~smt:1 a.Arch.uarch

let fresh_dir = Tmp_dir.fresh ~prefix:"mp_disk_test"

(* This process's cache root: a machine created while it is set keeps
   its measurements and its replay records under it. *)
let root = fresh_dir "root"

let ns () = Measurement_cache.namespace ()

(* The same directory under another name: a store on it is a second
   store, as another process would open it, and its first lookup scans
   the segments from disk. *)
let alias dir n =
  let rec go d n = if n = 0 then d else go (Filename.concat d ".") (n - 1) in
  go dir n

let disk ?(n = 0) dir = { Measurement_cache.dir = alias dir n; namespace = ns () }

(* the regular files of a store's root: its segments *)
let segments dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | fs ->
    Array.to_list fs
    |> List.filter (fun f -> not (Sys.is_directory (Filename.concat dir f)))
    |> List.sort compare
    |> List.map (Filename.concat dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_file path s =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644
    path (fun oc -> output_string oc s)

let the_segment dir =
  match segments dir with
  | [ f ] -> f
  | fs -> Alcotest.failf "%s: expected one segment, found %d" dir (List.length fs)

(* [n] distinct measurements, each with the job that recomputes it *)
let jobs n =
  let a = arch () in
  List.filteri
    (fun i _ -> i < n)
    [ "add"; "mulld"; "subf"; "and"; "or"; "xor"; "fadd"; "nor" ]
  |> List.mapi (fun i mnemonic ->
         let p = mono a mnemonic in
         let run () =
           Machine.run
             (Machine.create ~cache:false ~replay:false a.Arch.uarch)
             (config a) p
         in
         (Printf.sprintf "%016x" (0xab0000 + i), run (), run))

let check_same what expected got =
  Alcotest.(check bool) (what ^ " bit-identical") true (compare expected got = 0)

(* A reader looks each key up, recomputing what it cannot serve;
   returns its stats. *)
let read_back ?(n = 1) dir jobs =
  let r = Measurement_cache.create ~disk:(disk ~n dir) () in
  List.iter
    (fun (k, m, run) -> check_same k m (Measurement_cache.find_or_add r k run))
    jobs;
  Measurement_cache.stats r

(* ----- layout ------------------------------------------------------------ *)

(* A cold batch of distinct jobs creates one file per store, not one per
   measurement and one per replay record. *)
let test_cold_batch_layout () =
  let a = arch () in
  let progs =
    List.map (mono a) [ "add"; "mulld"; "subf"; "and"; "or"; "xor" ]
  in
  let m = Machine.create a.Arch.uarch in
  let batch = Machine.run_batch m (List.map (fun p -> (config a, p)) progs) in
  let rdir = Measurement_cache.replay_dir root in
  Alcotest.(check int) "one segment in the cache root" 1
    (List.length (segments root));
  Alcotest.(check int) "one segment in the replay store" 1
    (List.length (segments rdir));
  Alcotest.(check int) "every measurement framed" 6
    (Measurement_cache.disk_stats root).Measurement_cache.ds_entries;
  Alcotest.(check int) "every replay record framed" 6
    (Measurement_cache.disk_stats rdir).Measurement_cache.ds_entries;
  (* a second cache on the directory serves the batch from the frames *)
  let warm = Machine.create a.Arch.uarch in
  List.iter2
    (fun p r -> check_same "warm" r (Machine.run warm (config a) p))
    progs batch;
  match Machine.measurement_cache warm with
  | Some c ->
    let s = Measurement_cache.stats c in
    Alcotest.(check int) "all from disk" 6 s.Measurement_cache.disk_hits;
    Alcotest.(check int) "nothing simulated" 0 s.Measurement_cache.misses
  | None -> Alcotest.fail "expected a measurement cache"

(* Replay records follow the cache root a machine is created under, not
   the first root the process read. *)
let test_replay_follows_root () =
  let a = arch () in
  let p = mono a "nor" in
  let roots = [ fresh_dir "root-a"; fresh_dir "root-b" ] in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MP_CACHE_DIR" root)
    (fun () ->
      List.iter
        (fun dir ->
          Unix.putenv "MP_CACHE_DIR" dir;
          ignore (Machine.run (Machine.create a.Arch.uarch) (config a) p))
        roots);
  List.iter
    (fun dir ->
      Alcotest.(check int)
        (Filename.basename dir ^ ": one measurement segment")
        1
        (List.length (segments dir));
      Alcotest.(check int)
        (Filename.basename dir ^ ": one replay segment")
        1
        (List.length (segments (Measurement_cache.replay_dir dir))))
    roots

(* ----- torn and corrupt frames ------------------------------------------ *)

(* Three frames through one writer; returns the segment and its size
   after each. *)
let write_three dir jobs =
  let w = Measurement_cache.create ~disk:(disk dir) () in
  let sizes =
    List.map
      (fun (k, m, _) ->
        Measurement_cache.add w k m;
        (Unix.stat (the_segment dir)).Unix.st_size)
      jobs
  in
  (the_segment dir, sizes)

(* [r] serves exactly [m] under [k] *)
let served r k m =
  match Measurement_cache.find r k with
  | Some got -> compare got m = 0
  | None -> false

(* The last of three frames cut mid-payload, as a crash or a writer
   mid-append leaves it; returns the segment, the cut and the bytes it
   dropped. *)
let torn_segment tag js =
  let dir = fresh_dir tag in
  let seg, sizes = write_three dir js in
  let whole = read_file seg in
  let s2 = List.nth sizes 1 and s3 = List.nth sizes 2 in
  let cut = s2 + ((s3 - s2) * 3 / 4) in
  Unix.truncate seg cut;
  (dir, seg, String.sub whole cut (s3 - cut))

let test_torn_tail () =
  let js = jobs 3 in
  let dir, _, _ = torn_segment "torn" js in
  let s = read_back dir js in
  Alcotest.(check int) "whole frames served" 2 s.Measurement_cache.disk_hits;
  Alcotest.(check int) "torn frame recomputed" 1 s.Measurement_cache.misses;
  (* a reader that scanned the torn tail finds the frame once its
     writer completes it *)
  let dir, seg, rest = torn_segment "torn-later" js in
  let r = Measurement_cache.create ~disk:(disk ~n:1 dir) () in
  let k1, m1, _ = List.hd js and k3, m3, _ = List.nth js 2 in
  Alcotest.(check bool) "served before the tail" true (served r k1 m1);
  Alcotest.(check bool) "torn frame not served" false (served r k3 m3);
  append_file seg rest;
  Alcotest.(check bool) "completed frame served" true (served r k3 m3)

let test_flipped_byte () =
  let dir = fresh_dir "flip" in
  let js = jobs 3 in
  let seg, sizes = write_three dir js in
  let s1 = List.nth sizes 0 and s2 = List.nth sizes 1 in
  (* one byte in the middle of the second frame's payload *)
  let at = (s1 + s2) / 2 + 24 in
  let b = Bytes.of_string (read_file seg) in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x5a));
  Out_channel.with_open_bin seg (fun oc -> Out_channel.output_bytes oc b);
  let s = read_back dir js in
  (* the checksum rejects the frame and ends the segment's scan: the
     first entry is served, the rest recomputed *)
  Alcotest.(check int) "frame before the flip served" 1
    s.Measurement_cache.disk_hits;
  Alcotest.(check int) "flipped and later frames recomputed" 2
    s.Measurement_cache.misses

(* ----- refresh on a miss ------------------------------------------------- *)

let test_refresh_on_miss () =
  let dir = fresh_dir "refresh" in
  let js = jobs 3 in
  let (k1, m1, _), (k2, m2, _), (k3, m3, _) =
    match js with [ x; y; z ] -> (x, y, z) | _ -> assert false
  in
  let w = Measurement_cache.create ~disk:(disk dir) () in
  Measurement_cache.add w k1 m1;
  let r = Measurement_cache.create ~disk:(disk ~n:1 dir) () in
  Alcotest.(check bool) "first scan finds the writer's frame" true
    (served r k1 m1);
  Alcotest.(check bool) "not yet written" false (served r k2 m2);
  (* the writer's segment grows after the reader's scan ... *)
  Measurement_cache.add w k2 m2;
  Alcotest.(check bool) "grown tail found on the next miss" true
    (served r k2 m2);
  (* ... and a new writer's segment appears *)
  Measurement_cache.add (Measurement_cache.create ~disk:(disk ~n:2 dir) ()) k3 m3;
  Alcotest.(check bool) "new segment found on the next miss" true
    (served r k3 m3);
  Alcotest.(check int) "two writers, two segments" 2 (List.length (segments dir));
  Alcotest.(check int) "all three from disk" 3
    (Measurement_cache.stats r).Measurement_cache.disk_hits

(* ----- pruning next to a live writer ------------------------------------- *)

(* The bytes of one frame, as a writer of this build appends them. *)
let frame_bytes k m =
  let d = fresh_dir "frame" in
  Measurement_cache.write_entry (disk d) k m;
  read_file (the_segment d)

(* Another cache starting on the directory prunes it. The pruner must
   remove only other builds' files: not a frame of a live writer of
   this build — one in another process, caught mid-append, and one in
   this process, appending while the prunes run. *)
let test_prune_spares_live_writer () =
  let dir = fresh_dir "prune" in
  let js = jobs 8 in
  let outside = List.filteri (fun i _ -> i < 3) js
  and inside = List.filteri (fun i _ -> i >= 3) js in
  let w = Measurement_cache.create ~disk:(disk dir) () in
  Unix.mkdir dir 0o755;
  let stale = Filename.concat dir "v0-other-build-1-1" in
  Out_channel.with_open_bin stale (fun oc -> output_string oc "stale");
  let frames = List.map (fun (k, m, _) -> frame_bytes k m) outside in
  let last = List.nth frames 2 in
  let half = String.length last / 2 in
  let other = Filename.concat dir (Printf.sprintf "%s-1-feed" (ns ())) in
  Out_channel.with_open_bin other (fun oc ->
      List.iteri (fun i f -> if i < 2 then output_string oc f) frames;
      output_string oc (String.sub last 0 half));
  let writer =
    Domain.spawn (fun () ->
        List.iter (fun (k, m, _) -> Measurement_cache.add w k m) inside)
  in
  for n = 1 to 20 do
    ignore (Measurement_cache.create ~disk:(disk ~n dir) ())
  done;
  Domain.join writer;
  Alcotest.(check bool) "other build's segment pruned" false
    (Sys.file_exists stale);
  Alcotest.(check bool) "live writer's segment kept" true (Sys.file_exists other);
  (* the other process completes its append *)
  append_file other (String.sub last half (String.length last - half));
  let s = read_back ~n:21 dir js in
  Alcotest.(check int) "every entry served" 8 s.Measurement_cache.disk_hits;
  Alcotest.(check int) "none recomputed" 0 s.Measurement_cache.misses

let () =
  Unix.putenv "MP_CACHE_DIR" root;
  Alcotest.run "mp_disk"
    [
      ("disk store",
       [ Alcotest.test_case "cold batch: one segment per store" `Quick
           test_cold_batch_layout;
         Alcotest.test_case "replay records follow the cache root" `Quick
           test_replay_follows_root;
         Alcotest.test_case "torn tail" `Quick test_torn_tail;
         Alcotest.test_case "flipped payload byte" `Quick test_flipped_byte;
         Alcotest.test_case "refresh on miss" `Quick test_refresh_on_miss;
         Alcotest.test_case "prune spares a live writer" `Quick
           test_prune_spares_live_writer ]);
    ]
