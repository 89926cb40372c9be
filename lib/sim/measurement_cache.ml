open Mp_uarch
open Mp_codegen

(* ----- disk persistence -------------------------------------------------- *)

(* Bump when the on-disk entry layout or the key derivation changes.
   Simulator-behaviour changes are handled automatically: the namespace
   digests the running executable, so entries written by a different
   build are invisible (and pruned) rather than silently reused.
   v2: occupancies became exact rationals (fixed-point simulator
   arithmetic) and seed-independent measurements drop the seed from the
   key.
   v3: keys are structural-hash folds (not Marshal+MD5 digests) and
   entries live in two-hex-digit shard subdirectories. *)
let schema_version = 3

type disk = { dir : string; namespace : string }

(* Fingerprint of the running build: entries are only valid for the
   binary that produced them, because any change to the simulator or
   the energy table changes what a key's measurement should be. Kept
   lazy (digesting the executable is not start-up work), and forced
   under a mutex: pool domains ask for it concurrently, and OCaml 5
   raises [CamlinternalLazy.Undefined] when two domains force one lazy
   value at once. *)
let binary_stamp =
  let stamp =
    lazy
      (try Digest.to_hex (Digest.file Sys.executable_name)
       with _ -> Digest.to_hex (Digest.string Sys.executable_name))
  in
  let lock = Mutex.create () in
  fun () -> Mutex.protect lock (fun () -> Lazy.force stamp)

let namespace () =
  Printf.sprintf "v%d-%s" schema_version (binary_stamp ())

let env_disk () =
  if Mp_util.Env.flag "MP_CACHE" ~default:true then
    Some
      {
        dir =
          Option.value ~default:"_mp_cache" (Mp_util.Env.get "MP_CACHE_DIR");
        namespace = namespace ();
      }
  else None

(* Entries shard into subdirectories named by the first two hex digits
   of the key, so a very large cache never accumulates one enormous
   flat directory (readdir/gc stay fast). *)
let shard_of key = if String.length key >= 2 then String.sub key 0 2 else "00"

let shard_dir disk key = Filename.concat disk.dir (shard_of key)

let entry_path disk key =
  Filename.concat (shard_dir disk key) (disk.namespace ^ "-" ^ key)

(* Replay records live in this subdirectory of the cache root, written
   through the same entry functions, so the walker below prunes, bounds
   and counts both stores. *)
let replay_dir root = Filename.concat root "replay"

let is_dir path = match Sys.is_directory path with d -> d | exception _ -> false

(* a shard subdirectory is exactly two hex digits *)
let is_shard_name f =
  String.length f = 2
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       f

(* a store's entry directories: its root and every shard under it *)
let store_dirs root =
  root
  ::
  (match Sys.readdir root with
   | exception _ -> []
   | fs ->
     Array.to_list fs
     |> List.filter_map (fun f ->
            let sub = Filename.concat root f in
            if is_shard_name f && is_dir sub then Some sub else None))

(* The one walker behind prune, gc and disk_stats: every regular file
   in [dirs], as (name, path, stat). *)
let files_in dirs =
  List.concat_map
    (fun d ->
      match Sys.readdir d with
      | exception _ -> []
      | fs ->
        Array.to_list fs
        |> List.filter_map (fun f ->
               let path = Filename.concat d f in
               match Unix.stat path with
               | exception _ -> None
               | st when st.Unix.st_kind = Unix.S_REG -> Some (f, path, st)
               | _ -> None))
    dirs

(* both stores under a cache root: measurements and replay records *)
let cache_dirs root = store_dirs root @ store_dirs (replay_dir root)

(* Drop entries left behind by other builds — at most once per
   directory per process, best-effort. *)
let pruned_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let pruned_lock = Mutex.create ()

let prune_stale disk =
  Mutex.lock pruned_lock;
  let fresh = not (Hashtbl.mem pruned_dirs disk.dir) in
  if fresh then Hashtbl.add pruned_dirs disk.dir ();
  Mutex.unlock pruned_lock;
  if fresh then begin
    let ns = disk.namespace in
    List.iter
      (fun (f, path, _) ->
        let keep =
          String.length f > String.length ns
          && String.sub f 0 (String.length ns) = ns
        in
        if not keep then try Sys.remove path with _ -> ())
      (files_in (cache_dirs disk.dir))
  end

(* ----- housekeeping ------------------------------------------------------ *)

(* A cache directory grows without bound: the current build's entries
   accumulate across runs and every rebuild starts a fresh namespace.
   [gc] bounds it by total size, evicting in oldest-mtime order (a
   cheap LRU proxy: [find] never touches mtime, so "oldest" means
   "written longest ago", which across builds and long campaigns is the
   entry least likely to be asked for again). In-flight writes —
   [.tmp.*] files, which [write_entry] renames into place when complete
   — are never touched. *)

type gc_stats = {
  entries : int;
  removed : int;
  bytes_before : int;
  bytes_after : int;
}

let is_tmp f = String.length f >= 5 && String.sub f 0 5 = ".tmp."

let env_max_bytes () =
  Option.map
    (fun mb -> int_of_float (mb *. 1024.0 *. 1024.0))
    (Mp_util.Env.positive_float "MP_CACHE_MAX_MB")

let gc ?max_bytes dir =
  let max_bytes =
    match max_bytes with
    | Some b -> max 0 b
    | None -> (match env_max_bytes () with Some b -> b | None -> max_int)
  in
  (* oldest first; the path breaks mtime ties so eviction is
     deterministic *)
  let entries =
    files_in (cache_dirs dir)
    |> List.filter_map (fun (f, path, st) ->
           if is_tmp f then None
           else Some (st.Unix.st_mtime, path, st.Unix.st_size))
    |> List.sort compare
  in
  let bytes_before =
    List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries
  in
  let total = ref bytes_before in
  let removed = ref 0 in
  List.iter
    (fun (_, path, sz) ->
      if !total > max_bytes then
        match Sys.remove path with
        | () ->
          total := !total - sz;
          incr removed
        | exception _ -> ())
    entries;
  {
    entries = List.length entries;
    removed = !removed;
    bytes_before;
    bytes_after = !total;
  }

(* Read-only counterpart to [gc]'s scan, for the `mp-cache stat` CLI:
   how many shard subdirectories, entry files and bytes one store
   holds. In-flight [.tmp.*] files are excluded, like everywhere
   else. *)
type disk_stats = { ds_shards : int; ds_entries : int; ds_bytes : int }

let disk_stats dir =
  let dirs = store_dirs dir in
  let entries, bytes =
    List.fold_left
      (fun (entries, bytes) (f, _, st) ->
        if is_tmp f then (entries, bytes)
        else (entries + 1, bytes + st.Unix.st_size))
      (0, 0) (files_in dirs)
  in
  { ds_shards = List.length dirs - 1; ds_entries = entries; ds_bytes = bytes }

(* Enforce the MP_CACHE_MAX_MB bound automatically — at most once per
   directory per process, like [prune_stale], so repeated
   [Machine.create] calls don't rescan the directory. *)
let gced_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4

let gc_auto disk =
  match env_max_bytes () with
  | None -> ()
  | Some b ->
    Mutex.lock pruned_lock;
    let fresh = not (Hashtbl.mem gced_dirs disk.dir) in
    if fresh then Hashtbl.add gced_dirs disk.dir ();
    Mutex.unlock pruned_lock;
    if fresh then ignore (gc ~max_bytes:b disk.dir)

(* ----- entries ----------------------------------------------------------- *)

let rec ensure_dir dir =
  if not (is_dir dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with _ -> ()
  end

let tmp_counter = Atomic.make 0

(* write-to-temp + rename: readers never observe a partial entry, and
   concurrent writers of the same key are both writing identical bytes.
   The temp lives in the shard directory so the rename stays atomic
   within one directory. *)
let write_entry disk key v =
  try
    let shard = shard_dir disk key in
    ensure_dir shard;
    let tmp =
      Filename.concat shard
        (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_counter 1))
    in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Marshal.to_channel oc (schema_version, key, v) [];
        close_out oc);
    Sys.rename tmp (entry_path disk key)
  with _ -> ()

(* any failure — missing file, truncation, corruption, wrong version —
   is a miss, never an error *)
let read_entry disk key =
  match open_in_bin (entry_path disk key) with
  | exception _ -> None
  | ic ->
    let r =
      try
        let (v : int), (k : string), payload = Marshal.from_channel ic in
        if v = schema_version && k = key then Some payload else None
      with _ -> None
    in
    close_in_noerr ic;
    r

(* ----- the cache --------------------------------------------------------- *)

type t = {
  lock : Mutex.t;
  table : (string, Measurement.t) Hashtbl.t;
  pending : (string, unit) Hashtbl.t;  (* keys being computed right now *)
  resolved : Condition.t;  (* signalled when a pending key settles *)
  disk : disk option;
  mutable hits : int;
  mutable misses : int;
  mutable disk_hits : int;
}

type stats = { hits : int; misses : int; disk_hits : int }

let create ?disk () =
  Option.iter prune_stale disk;
  Option.iter gc_auto disk;
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    pending = Hashtbl.create 8;
    resolved = Condition.create ();
    disk;
    hits = 0;
    misses = 0;
    disk_hits = 0;
  }

let persistent t = t.disk <> None

let stats t =
  Mutex.lock t.lock;
  let s = { hits = t.hits; misses = t.misses; disk_hits = t.disk_hits } in
  Mutex.unlock t.lock;
  s

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let reset_stats t =
  Mutex.lock t.lock;
  t.hits <- 0;
  t.misses <- 0;
  t.disk_hits <- 0;
  Mutex.unlock t.lock

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0;
  t.disk_hits <- 0;
  Mutex.unlock t.lock

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

(* ----- fingerprinting --------------------------------------------------- *)

let uarch_fingerprint (u : Uarch_def.t) =
  (* everything except [resources], which is a closure (both
     unmarshalable and meaningless as a content key; the instruction
     tables it encodes are versioned by the binary stamp anyway) *)
  let data =
    ( ( u.Uarch_def.name,
        u.Uarch_def.max_cores,
        u.Uarch_def.smt_modes,
        u.Uarch_def.dispatch_width,
        u.Uarch_def.completion_width,
        u.Uarch_def.window ),
      ( u.Uarch_def.pipes,
        u.Uarch_def.caches,
        u.Uarch_def.mem_latency,
        u.Uarch_def.mem_bw_lines_per_cycle,
        u.Uarch_def.freq_ghz,
        u.Uarch_def.unit_area_mm2,
        u.Uarch_def.pmcs,
        u.Uarch_def.occ_den ) )
  in
  Digest.to_hex (Digest.string (Marshal.to_string data []))

(* cumulative wall time spent deriving keys, for the bench harness *)
let key_ns = Atomic.make 0

let key_seconds () = float_of_int (Atomic.get key_ns) *. 1e-9

(* O(1) per program: fold the precomputed structural hashes instead of
   re-serialising every instruction on every lookup. The per-program
   name is hashed inside [struct_hash]; [name] here is the run label,
   which [Machine.run] seeds per-thread RNGs from, so it stays in the
   key. *)
let key ?(uarch = "") ?seed ~(config : Uarch_def.config) ~warmup ~measure
    ~name per_thread =
  let t0 = Unix.gettimeofday () in
  let module F = Mp_util.Fnv in
  let h = F.string F.seed uarch in
  (* [None]: the measurement is seed-independent — same bytes on any
     machine — so the key is shared across seeds *)
  let h =
    match seed with None -> F.byte h 0 | Some s -> F.int (F.byte h 1) s
  in
  let h = F.int h config.Uarch_def.cores in
  let h = F.int h config.Uarch_def.smt in
  let h = F.int h warmup in
  let h = F.int h measure in
  let h = F.string h name in
  let h = F.int h (Array.length per_thread) in
  let h =
    Array.fold_left (fun h p -> F.int64 h (Ir.struct_hash p)) h per_thread
  in
  let k = F.to_hex (F.finish h) in
  let dt = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  ignore (Atomic.fetch_and_add key_ns (max 0 dt));
  k

(* ----- lookup ----------------------------------------------------------- *)

let find t k =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table k with
  | Some m ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.lock;
    Some m
  | None ->
    Mutex.unlock t.lock;
    (* the disk probe runs outside the lock: it is pure IO and two
       racing probes of the same key load identical bytes *)
    let from_disk : Measurement.t option =
      Option.bind t.disk (fun d -> read_entry d k)
    in
    Mutex.lock t.lock;
    (match from_disk with
     | Some m ->
       t.hits <- t.hits + 1;
       t.disk_hits <- t.disk_hits + 1;
       if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k m
     | None -> t.misses <- t.misses + 1);
    Mutex.unlock t.lock;
    from_disk

let add t k m =
  Mutex.lock t.lock;
  let first = not (Hashtbl.mem t.table k) in
  if first then Hashtbl.add t.table k m;
  Mutex.unlock t.lock;
  if first then Option.iter (fun d -> write_entry d k m) t.disk

(* Single-flight: concurrent misses on the same key run [compute] at
   most once — the first claimant computes, everyone else blocks on
   [resolved] and reads the published value. The accounting invariant
   this preserves: [misses] counts computations actually executed
   (waiters are hits), which is what the harness reports as
   "simulations ran". *)
let rec find_or_add t k compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table k with
  | Some m ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.lock;
    m
  | None ->
    if Hashtbl.mem t.pending k then begin
      while Hashtbl.mem t.pending k do
        Condition.wait t.resolved t.lock
      done;
      let settled = Hashtbl.find_opt t.table k in
      (match settled with Some _ -> t.hits <- t.hits + 1 | None -> ());
      Mutex.unlock t.lock;
      match settled with
      | Some m -> m
      | None ->
        (* the computing domain failed; take over *)
        find_or_add t k compute
    end
    else begin
      Hashtbl.add t.pending k ();
      Mutex.unlock t.lock;
      (* the disk probe and the computation both run outside the lock *)
      match (Option.bind t.disk (fun d -> read_entry d k) : Measurement.t option) with
      | Some m ->
        Mutex.lock t.lock;
        t.hits <- t.hits + 1;
        t.disk_hits <- t.disk_hits + 1;
        if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k m;
        Hashtbl.remove t.pending k;
        Condition.broadcast t.resolved;
        Mutex.unlock t.lock;
        m
      | None ->
        Mutex.lock t.lock;
        t.misses <- t.misses + 1;
        Mutex.unlock t.lock;
        let m =
          try compute ()
          with e ->
            Mutex.lock t.lock;
            Hashtbl.remove t.pending k;
            Condition.broadcast t.resolved;
            Mutex.unlock t.lock;
            raise e
        in
        Mutex.lock t.lock;
        if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k m;
        Hashtbl.remove t.pending k;
        Condition.broadcast t.resolved;
        Mutex.unlock t.lock;
        Option.iter (fun d -> write_entry d k m) t.disk;
        m
    end
