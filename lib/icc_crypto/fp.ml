(* Modular arithmetic on native ints for odd moduli below 2^61.

   All values are canonical representatives in [0, m).  Since m < 2^61 and
   OCaml's native int has 63 bits, [a + b] for canonical a, b never wraps,
   so addition-based double-and-add multiplication is exact. *)

let max_modulus_bits = 61

let check_modulus m =
  if m < 3 || m land 1 = 0 || m >= 1 lsl max_modulus_bits then
    invalid_arg "Fp.check_modulus: modulus must be odd, in [3, 2^61)"

let reduce a m =
  let r = a mod m in
  if r < 0 then r + m else r

let add a b m =
  let s = a + b in
  if s >= m then s - m else s

let sub a b m =
  let d = a - b in
  if d < 0 then d + m else d

let neg a m = if a = 0 then 0 else m - a

(* Double-and-add product; O(log b) additions, exact for any m < 2^61.
   Kept as the reference implementation (property tests compare the fast
   path against it) and as the fallback for moduli the fast path cannot
   serve. *)
let mul_generic a b m =
  let rec go acc a b =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then add acc a m else acc in
      go acc (add a a m) (b lsr 1)
  in
  if a = 0 || b = 0 then 0 else go 0 a b

(* Fast path: a pseudo-Mersenne fold, for moduli 2^59 < m <= 2^61 with
   d = 2^61 mod m < 2^16.  Both protocol moduli qualify: d is 2373 for
   p = 2^61 - 2373 and 2374 for q = (p - 1)/2.  Every other modulus takes
   [mul_generic].

   The 122-bit product is built as H*2^61 + L from 31-bit halves
   a = a1*2^31 + a0, b = b1*2^31 + b0 (a1, b1 < 2^30; a0, b0 < 2^31):

     a*b = (a1*b1)*2^62 + mid*2^31 + a0*b0,   mid = a1*b0 + a0*b1 < 2^62

   Since 2^61 = d (mod m), a*b = H*d + L.  H < m, so H*d can reach 2^77;
   it is split once more at bit 31 of H (t = (H >> 31)*d < 2^46) and
   folded a second time, leaving x = c*d + (u land mask61) with
   c < 2^16 + 3, hence x < 2^61 + 2^33 <= 4m + 2^33 < 5m: at most four
   subtractions of m (one for p, two for q).

   OCaml's max_int is 2^62 - 1.  Two intermediates can pass it: [lo]
   (< 2^61 + 2^62) and [u] (< 2^62 + 2^47).  Both stay below 2^63, so
   their 63-bit patterns are exact unsigned values, and both reach only
   [lsr] and [land].  Every other intermediate is below 2^62.  The
   function allocates nothing. *)
let mask30 = (1 lsl 30) - 1
let mask31 = (1 lsl 31) - 1
let mask61 = (1 lsl 61) - 1

let rec below m x = if x < m then x else below m (x - m)

let mul_fold a b m d =
  let a1 = a lsr 31 and a0 = a land mask31 in
  let b1 = b lsr 31 and b0 = b land mask31 in
  let mid = (a1 * b0) + (a0 * b1) in
  let lo = ((mid land mask30) lsl 31) + (a0 * b0) in
  let hi = ((a1 * b1) lsl 1) + (mid lsr 30) + (lo lsr 61) in
  let t = (hi lsr 31) * d in
  let u =
    (lo land mask61) + ((hi land mask31) * d) + ((t land mask30) lsl 31)
  in
  below m ((u land mask61) + (((u lsr 61) + (t lsr 30)) * d))

(* §3.5 toggle. *)
let fast_mul = ref true
let set_fast_mul on = fast_mul := on
let fast_mul_enabled () = !fast_mul

(* For m > 2^59, 2^61 = k*m + d with k <= 3, so d needs at most two
   subtractions, not a division.  A modulus above 2^61 leaves d < 0. *)
let mul a b m =
  if !fast_mul && m > 1 lsl 59 then
    let d = (1 lsl 61) - m in
    let d = if d >= m then d - m else d in
    let d = if d >= m then d - m else d in
    if d >= 0 && d < 1 lsl 16 then mul_fold a b m d else mul_generic a b m
  else mul_generic a b m

let pow base e m =
  if e < 0 then invalid_arg "Fp.pow: negative exponent";
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc base m else acc in
      go acc (mul base base m) (e lsr 1)
  in
  go 1 (reduce base m) e

(* Extended Euclid; returns x with a*x = gcd(a,m) (mod m). *)
let inv a m =
  let rec go r0 r1 s0 s1 =
    if r1 = 0 then (r0, s0)
    else
      let q = r0 / r1 in
      go r1 (r0 - (q * r1)) s1 (s0 - (q * s1))
  in
  let a = reduce a m in
  if a = 0 then invalid_arg "Fp.inv: zero has no inverse";
  let g, x = go m a 0 1 in
  if g <> 1 then invalid_arg "Fp.inv: element not invertible";
  reduce x m

let divide a b m = mul a (inv b m) m
