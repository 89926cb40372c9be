open Mp_uarch

(* The original list-of-levels cache model, kept verbatim as the
   bit-exactness oracle for the packed model in [Cache_sim] (reachable
   there via [MP_CACHE_MODEL=list]). Apart from the saturated prefetch
   streak — shared by both models — nothing here is optimised: levels
   are a list, counters an assoc list, and the boundary fingerprint
   serializes every line of every set. [Cache_sim] documents the
   equivalence argument. *)

(* One set-associative LRU level: per set, [ways] line addresses ordered
   most-recently-used first; -1 marks an empty way. *)
type level_state = {
  geom : Cache_geometry.t;
  lines : int array array;  (* set -> MRU-ordered line addresses *)
}

type t = {
  levels : level_state list;  (* L1, L2, L3 in order *)
  counts : (Cache_geometry.level * int ref) list;
  mutable prefetch_last : int;   (* last line accessed *)
  mutable prefetch_streak : int; (* consecutive +1-line strides, saturated *)
  mutable prefetch_count : int;
}

let make_level geom =
  {
    geom;
    lines = Array.init (Cache_geometry.sets geom)
        (fun _ -> Array.make geom.Cache_geometry.associativity (-1));
  }

let create (uarch : Uarch_def.t) =
  {
    levels = List.map make_level uarch.Uarch_def.caches;
    counts = List.map (fun l -> (l, ref 0)) Cache_geometry.all_levels;
    prefetch_last = min_int;
    prefetch_streak = 0;
    prefetch_count = 0;
  }

(* Probe a level: true if the line is present; on hit, move to MRU. *)
let probe lvl line =
  let set = lvl.lines.(Cache_geometry.set_index lvl.geom line) in
  let ways = Array.length set in
  let rec find i = if i = ways then -1 else if set.(i) = line then i else find (i + 1) in
  let pos = find 0 in
  if pos < 0 then false
  else begin
    (* move-to-front *)
    for j = pos downto 1 do
      set.(j) <- set.(j - 1)
    done;
    set.(0) <- line;
    true
  end

let fill lvl line =
  let set = lvl.lines.(Cache_geometry.set_index lvl.geom line) in
  let ways = Array.length set in
  for j = ways - 1 downto 1 do
    set.(j) <- set.(j - 1)
  done;
  set.(0) <- line

(* Walk the hierarchy for one line; returns the source level and fills
   all levels above it. *)
let lookup t line =
  let rec walk = function
    | [] -> Cache_geometry.MEM
    | lvl :: deeper ->
      if probe lvl line then lvl.geom.Cache_geometry.level
      else
        let src = walk deeper in
        fill lvl line;
        src
  in
  walk t.levels

let line_of t addr =
  match t.levels with
  | [] -> addr
  | l1 :: _ -> Cache_geometry.line_address l1.geom addr

let line_bytes t =
  match t.levels with
  | [] -> 128
  | l1 :: _ -> l1.geom.Cache_geometry.line_bytes

let bump t level =
  incr (List.assoc level t.counts)

let run_prefetcher t line =
  let step = line_bytes t in
  if line = t.prefetch_last + step then begin
    (* only [streak >= 3] is ever consulted: saturate the live counter
       at that bound so behavioural state — and with it the boundary
       fingerprint — stays periodic on endless sequential walks *)
    if t.prefetch_streak < 3 then t.prefetch_streak <- t.prefetch_streak + 1;
    if t.prefetch_streak >= 3 then begin
      (* stream detected: pull the next two lines into the hierarchy *)
      ignore (lookup t (line + step));
      ignore (lookup t (line + (2 * step)));
      t.prefetch_count <- t.prefetch_count + 2
    end
  end
  else t.prefetch_streak <- 0;
  t.prefetch_last <- line

let access t ~addr ~store =
  ignore store;
  let line = line_of t addr in
  let src = lookup t line in
  bump t src;
  run_prefetcher t line;
  src

let hits t level = !(List.assoc level t.counts)

let prefetches_issued t = t.prefetch_count

let prefetch_streak t = t.prefetch_streak

let reset_stats t =
  List.iter (fun (_, r) -> r := 0) t.counts;
  t.prefetch_count <- 0

let reset t =
  List.iter
    (fun lvl ->
      Array.iter (fun set -> Array.fill set 0 (Array.length set) (-1)) lvl.lines)
    t.levels;
  reset_stats t;
  t.prefetch_last <- min_int;
  t.prefetch_streak <- 0

(* ----- period-skipping support ------------------------------------------- *)

let stats_snapshot t =
  let n = List.length t.counts in
  let a = Array.make (n + 1) 0 in
  List.iteri (fun i (_, r) -> a.(i) <- !r) t.counts;
  a.(n) <- t.prefetch_count;
  a

let credit t ~times ~since =
  List.iteri
    (fun i (_, r) -> r := !r + (times * (!r - since.(i))))
    t.counts;
  t.prefetch_count <-
    t.prefetch_count
    + (times * (t.prefetch_count - since.(List.length t.counts)))

let add_fingerprint t buf =
  List.iter
    (fun lvl ->
      Buffer.add_char buf 'L';
      Array.iter
        (fun set ->
          Array.iter
            (fun line ->
              Buffer.add_string buf (string_of_int line);
              Buffer.add_char buf ',')
            set;
          Buffer.add_char buf '/')
        lvl.lines)
    t.levels;
  Buffer.add_char buf '#';
  Buffer.add_string buf (string_of_int t.prefetch_last);
  Buffer.add_char buf ':';
  (* the live counter is saturated at 3, so this clamp is a no-op kept
     as documentation of what the fingerprint depends on *)
  Buffer.add_string buf (string_of_int (min t.prefetch_streak 3))
