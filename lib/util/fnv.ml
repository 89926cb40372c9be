(* 64-bit FNV-1a folding with a splitmix-style finisher. The folds are
   plain multiply-xor steps — cheap enough to run per instruction at
   program-build time — and [finish] adds the avalanche FNV itself
   lacks, so low-entropy inputs (small ints, short mnemonics) still
   spread over the whole 64-bit space. *)

type t = int64

let seed = 0xCBF29CE484222325L (* FNV-1a offset basis *)
let prime = 0x100000001B3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xFF))) prime

let int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done;
  !h

let int h v = int64 h (Int64.of_int v)

let bool h b = byte h (if b then 1 else 0)

(* length-prefixed, so adjacent strings can't alias across a boundary *)
let string h s =
  let h = ref (int h (String.length s)) in
  String.iter (fun c -> h := byte !h (Char.code c)) s;
  !h

(* splitmix64 finalizer *)
let finish z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let to_hex v = Printf.sprintf "%016Lx" v

(* ----- two accumulators, one pass ------------------------------------- *)

(* The same fold into two accumulators at once. Threading an [int64]
   through a fold boxes it at every step; here both accumulators live in
   a 16-byte buffer, read and written with the compiler's unboxed 64-bit
   accessors, and each fold runs on local refs the compiler keeps
   unboxed, so folding allocates nothing. *)
type pair = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* the [n] low bytes of [v], least significant first; [asr], so the
   bytes past 62 bits are those of the sign-extended 64-bit value, as
   [int] folds them *)
let fold_le p v n =
  let h1 = ref (get64 p 0) and h2 = ref (get64 p 8) in
  for shift = 0 to n - 1 do
    let b = Int64.of_int ((v asr (shift * 8)) land 0xFF) in
    h1 := Int64.mul (Int64.logxor !h1 b) prime;
    h2 := Int64.mul (Int64.logxor !h2 b) prime
  done;
  set64 p 0 !h1;
  set64 p 8 !h2

let pair_byte p b = fold_le p b 1

let pair_int p v = fold_le p v 8

let pair_int64 p v =
  fold_le p (Int64.to_int v) 4;
  fold_le p (Int64.to_int (Int64.shift_right_logical v 32)) 4

let pair_string p s =
  pair_int p (String.length s);
  let h1 = ref (get64 p 0) and h2 = ref (get64 p 8) in
  for i = 0 to String.length s - 1 do
    let b = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h1 := Int64.mul (Int64.logxor !h1 b) prime;
    h2 := Int64.mul (Int64.logxor !h2 b) prime
  done;
  set64 p 0 !h1;
  set64 p 8 !h2

(* [prefix] goes to the first accumulator only: fold it into both, then
   restart the second from the seed *)
let pair ~prefix =
  let p = Bytes.create 16 in
  set64 p 0 seed;
  set64 p 8 seed;
  pair_string p prefix;
  set64 p 8 seed;
  p

let values p = (get64 p 0, get64 p 8)

(* ----- native-int variant ------------------------------------------------- *)

(* The same multiply-xor structure on OCaml's untagged 63-bit ints: no
   Int64 boxing, so a fold is a handful of machine instructions. Used
   where a hash is recomputed inside a simulator hot loop (the cache
   model re-hashes a set on every fill). The constants are the 64-bit
   ones truncated into native-int range, so the two variants are NOT
   interchangeable — finished values live in different spaces. *)

let seed_int = 0x3BF29CE484222325 (* offset basis, truncated to 62 bits *)
let prime_int = 0x100000001B3

let fold_int h v = (h lxor v) * prime_int

(* splitmix-style avalanche, constants truncated into native-int range *)
let finish_int z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)
