open Mp_uarch

type reading = {
  true_power : float;
  sensor_mean : float;
  trace : float array;
}

let static_power ~(table : Energy_table.t) ~(config : Uarch_def.config) =
  let n = float_of_int config.Uarch_def.cores in
  table.idle_power +. table.uncore_base
  +. (table.cmp_linear *. n)
  +. (table.cmp_quad *. n *. n)
  +. (if config.Uarch_def.smt > 1 then table.smt_overhead *. n else 0.0)

(* ----- energies by intern id ---------------------------------------- *)

(* Energies are summed in opcode-NAME order, never in intern-id order:
   ids reflect the machine's interning history, and float summation
   order must not — otherwise a measurement served from the persistent
   cache to a machine with a different history would differ in the last
   bit from a fresh simulation. Name order is {!Core_sim.name_ranks}
   order. A memo per domain keeps, for one (table, intern table) pair,
   the ids in rank order, the energies looked up so far by id, and
   scratch arrays for ordering transitions, so a sample compares no
   string, takes no lock and sorts in linear time. *)
type memo = {
  table : Energy_table.t;
  opmap : Core_sim.opmap;
  mutable ranks : int array;    (* the name ranks the rest was built for *)
  mutable by_rank : int array;  (* ids in name order *)
  mutable epi : float array;    (* id -> opcode energy; nan = not yet *)
  mutable trans : float array;
      (* prev id * ids + next id -> transition energy; nan = not yet *)
  mutable prev : int array;     (* scratch, per transition: prev rank *)
  mutable next : int array;     (* next rank *)
  mutable count : int array;
  mutable order : int array;    (* transition positions, then sorted *)
  mutable tmp : int array;
  mutable buckets : int array;  (* per rank, plus one *)
}

let memo_key : memo option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Rebuild the name order for [ranks]; the energies looked up so far keep
   their ids. *)
let regrow mm ranks =
  let old = Array.length mm.ranks and n = Array.length ranks in
  let by_rank = Array.make n 0 in
  Array.iteri (fun id r -> by_rank.(r) <- id) ranks;
  let epi = Array.make n Float.nan in
  Array.blit mm.epi 0 epi 0 old;
  let trans = Array.make (n * n) Float.nan in
  for a = 0 to old - 1 do
    Array.blit mm.trans (a * old) trans (a * n) old
  done;
  mm.ranks <- ranks;
  mm.by_rank <- by_rank;
  mm.epi <- epi;
  mm.trans <- trans;
  mm.buckets <- Array.make (n + 1) 0

let memo ~table ~opmap =
  let mm =
    match Domain.DLS.get memo_key with
    | Some mm when mm.table == table && mm.opmap == opmap -> mm
    | _ ->
      let mm =
        { table; opmap; ranks = [||]; by_rank = [||]; epi = [||];
          trans = [||]; prev = [||]; next = [||]; count = [||];
          order = [||]; tmp = [||]; buckets = [| 0 |] }
      in
      Domain.DLS.set memo_key (Some mm);
      mm
  in
  let ranks = Core_sim.name_ranks opmap in
  if ranks != mm.ranks then regrow mm ranks;
  mm

let[@inline] opcode_epi mm id =
  let e = mm.epi.(id) in
  if Float.is_nan e then begin
    let e = mm.table.Energy_table.opcode_epi (Core_sim.opmap_name mm.opmap id) in
    mm.epi.(id) <- e;
    e
  end
  else e

let[@inline] transition_energy mm a b =
  let k = (a * Array.length mm.ranks) + b in
  let e = mm.trans.(k) in
  if Float.is_nan e then begin
    let name = Core_sim.opmap_name mm.opmap in
    let e = mm.table.Energy_table.transition_energy (name a) (name b) in
    mm.trans.(k) <- e;
    e
  end
  else e

(* Stable counting sort of [src]'s first [n] positions by [key] (ranks
   below [Array.length buckets - 1]) into [dst]. *)
let counting_sort buckets key src dst n =
  Array.fill buckets 0 (Array.length buckets) 0;
  for i = 0 to n - 1 do
    let k = key.(src.(i)) + 1 in
    buckets.(k) <- buckets.(k) + 1
  done;
  for k = 1 to Array.length buckets - 1 do
    buckets.(k) <- buckets.(k) + buckets.(k - 1)
  done;
  for i = 0 to n - 1 do
    let j = src.(i) in
    let k = key.(j) in
    dst.(buckets.(k)) <- j;
    buckets.(k) <- buckets.(k) + 1
  done

(* Transitions in (prev name, next name) order: by next rank, then
   stably by prev rank. *)
let transition_sum mm transitions =
  let n = List.length transitions in
  if Array.length mm.prev < n then begin
    let m = max n (2 * Array.length mm.prev) in
    mm.prev <- Array.make m 0;
    mm.next <- Array.make m 0;
    mm.count <- Array.make m 0;
    mm.order <- Array.make m 0;
    mm.tmp <- Array.make m 0
  end;
  List.iteri
    (fun i (a, b, c) ->
      mm.prev.(i) <- mm.ranks.(a);
      mm.next.(i) <- mm.ranks.(b);
      mm.count.(i) <- c;
      mm.order.(i) <- i)
    transitions;
  counting_sort mm.buckets mm.next mm.order mm.tmp n;
  counting_sort mm.buckets mm.prev mm.tmp mm.order n;
  let acc = ref 0.0 in
  for j = 0 to n - 1 do
    let i = mm.order.(j) in
    let a = mm.by_rank.(mm.prev.(i)) and b = mm.by_rank.(mm.next.(i)) in
    acc := !acc +. (float_of_int mm.count.(i) *. transition_energy mm a b)
  done;
  !acc

let core_dynamic ~(table : Energy_table.t) ~opmap ~(activity : Core_sim.activity) =
  let mm = memo ~table ~opmap in
  let cycles = float_of_int (max 1 activity.Core_sim.measured_cycles) in
  let scale = table.data_scale activity.Core_sim.daf in
  let issues = activity.Core_sim.op_issues in
  let opcode_energy = ref 0.0 in
  for r = 0 to Array.length mm.by_rank - 1 do
    let id = mm.by_rank.(r) in
    if id < Array.length issues && issues.(id) > 0 then
      opcode_energy :=
        !opcode_energy +. (float_of_int issues.(id) *. opcode_epi mm id)
  done;
  let cache_energy = ref 0.0 in
  let loads = activity.Core_sim.level_loads in
  for lid = 0 to Array.length loads - 1 do
    cache_energy :=
      !cache_energy +. (float_of_int loads.(lid) *. table.level_energy.(lid))
  done;
  let stores = ref 0.0 and dispatched = ref 0.0 in
  let threads = activity.Core_sim.threads in
  for t = 0 to Array.length threads - 1 do
    stores := !stores +. threads.(t).Measurement.st;
    dispatched := !dispatched +. threads.(t).Measurement.dispatched
  done;
  let transition_energy = transition_sum mm activity.Core_sim.transitions in
  ((!opcode_energy *. scale)
   +. !cache_energy
   +. (!stores *. table.store_energy)
   +. (!dispatched *. table.dispatch_energy)
   +. transition_energy)
  /. cycles

let chip_power ~table ~config ~opmap ~activity =
  let dyn_core = core_dynamic ~table ~opmap ~activity in
  let chip_dyn = dyn_core *. float_of_int config.Uarch_def.cores in
  static_power ~table ~config +. table.saturate chip_dyn

let idle_power ~table ~config = static_power ~table ~config

let sample ~table ~rng ~config ~opmap ~activity () =
  let p = chip_power ~table ~config ~opmap ~activity in
  let trace =
    Array.init 24 (fun _ ->
        let rel = Mp_util.Rng.gaussian rng ~mu:1.0 ~sigma:table.noise_rel in
        let abs = Mp_util.Rng.gaussian rng ~mu:0.0 ~sigma:table.noise_abs in
        Float.max 0.0 ((p *. rel) +. abs))
  in
  { true_power = p; sensor_mean = Mp_util.Stats.mean trace; trace }
