(* The digits come from the non-positive image of [n], so [min_int],
   whose negation overflows, needs no special case: [m / p] is then
   non-positive and [(m / p) mod 10] lies in [-9, 0]. [p] is the
   largest power of ten at most [|n|]; it cannot overflow because
   [10 * p <= |n|] guards each step. *)
let add_int b n =
  let m = if n < 0 then n else -n in
  if n < 0 then Buffer.add_char b '-';
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    Buffer.add_char b (Char.unsafe_chr (48 - ((m / !p) mod 10)));
    p := !p / 10
  done
