open Mp_isa

type pool = { regs : Reg.t array; mutable next : int }

type t = {
  singles : Reg.t list array;  (* per Reg.slot: [[r]] once asked, else [] *)
  bases : pool;
  gpr_src : pool;
  gpr_dst : pool;
  fpr_src : pool;
  fpr_dst : pool;
  vsr_src : pool;
  vsr_dst : pool;
  cr_dst : pool;
}

let range make lo hi = Array.init (hi - lo + 1) (fun i -> make (lo + i))

let mk_pool regs = { regs; next = 0 }

let create () =
  {
    singles = Array.make Reg.n_slots [];
    bases = mk_pool (range (fun i -> Reg.Gpr i) 8 15);
    gpr_src = mk_pool (range (fun i -> Reg.Gpr i) 16 23);
    gpr_dst = mk_pool (range (fun i -> Reg.Gpr i) 24 31);
    fpr_src = mk_pool (range (fun i -> Reg.Fpr i) 0 15);
    fpr_dst = mk_pool (range (fun i -> Reg.Fpr i) 16 31);
    vsr_src = mk_pool (range (fun i -> Reg.Vsr i) 0 31);
    vsr_dst = mk_pool (range (fun i -> Reg.Vsr i) 32 63);
    cr_dst = mk_pool (range (fun i -> Reg.Cr_field i) 0 5);
  }

let take p =
  let r = p.regs.(p.next) in
  p.next <- (p.next + 1) mod Array.length p.regs;
  r

let one t r =
  let k = Reg.slot r in
  match t.singles.(k) with
  | [] ->
    let l = [ r ] in
    t.singles.(k) <- l;
    l
  | l -> l

let base t = take t.bases

let source t = function
  | Instruction.Gpr -> take t.gpr_src
  | Instruction.Fpr -> take t.fpr_src
  | Instruction.Vsr -> take t.vsr_src
  | Instruction.Cr -> take t.cr_dst

let dest t = function
  | Instruction.Gpr -> take t.gpr_dst
  | Instruction.Fpr -> take t.fpr_dst
  | Instruction.Vsr -> take t.vsr_dst
  | Instruction.Cr -> take t.cr_dst

let all_sources = function
  | Instruction.Gpr -> Array.to_list (range (fun i -> Reg.Gpr i) 16 23)
  | Instruction.Fpr -> Array.to_list (range (fun i -> Reg.Fpr i) 0 15)
  | Instruction.Vsr -> Array.to_list (range (fun i -> Reg.Vsr i) 0 31)
  | Instruction.Cr -> Array.to_list (range (fun i -> Reg.Cr_field i) 0 5)

let all_bases = Array.to_list (range (fun i -> Reg.Gpr i) 8 15)

let all_dests = function
  | Instruction.Gpr -> Array.to_list (range (fun i -> Reg.Gpr i) 24 31)
  | Instruction.Fpr -> Array.to_list (range (fun i -> Reg.Fpr i) 16 31)
  | Instruction.Vsr -> Array.to_list (range (fun i -> Reg.Vsr i) 32 63)
  | Instruction.Cr -> Array.to_list (range (fun i -> Reg.Cr_field i) 0 5)
