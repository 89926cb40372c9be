(* The 64-bit state lives in an 8-byte buffer, read and written with the
   compiler's unboxed 64-bit accessors: a mutable [int64] field would
   box every new state, and codegen and sensor noise draw per
   instruction and per sample. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  set_state g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 g =
  let s = Int64.add (get_state g 0) golden_gamma in
  set_state g 0 s;
  mix s

let split g = of_state (bits64 g)

let int g bound =
  assert (bound > 0);
  (* mask to 62 bits so the OCaml-int truncation cannot go negative *)
  let r = Int64.to_int (bits64 g) land max_int in
  r mod bound

let int_in g lo hi =
  assert (hi >= lo);
  lo + int g (hi - lo + 1)

let[@inline] float g bound =
  (* 53 random bits mapped to [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  r /. 9007199254740992.0 *. bound

let bool g = Int64.logand (bits64 g) 1L = 1L

let gaussian g ~mu ~sigma =
  let u1 = ref (float g 1.0) in
  while !u1 <= 0.0 do
    u1 := float g 1.0
  done;
  let u2 = float g 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2))

let choose g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

let choose_list g l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int g (List.length l))

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle g l =
  let a = Array.of_list l in
  shuffle_in_place g a;
  Array.to_list a

(* Loops over float refs, which stay unboxed: a fold or a recursive scan
   with a float accumulator boxes it at every element, and codegen draws
   one index per slot. *)
let weighted_index g w =
  let n = Array.length w in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. w.(i)
  done;
  if !total <= 0.0 then invalid_arg "Rng.weighted_index: non-positive total";
  let target = float g !total in
  (* the first i whose running sum exceeds the target; the last if none *)
  let i = ref 0 and acc = ref 0.0 and found = ref false in
  while (not !found) && !i < n - 1 do
    acc := !acc +. w.(!i);
    if target < !acc then found := true else incr i
  done;
  !i
