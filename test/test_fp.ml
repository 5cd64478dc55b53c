(* Unit and property tests for modular arithmetic. *)

let m = Icc_crypto.Group.p

let arb_residue_of m =
  QCheck.map (fun x -> Icc_crypto.Fp.reduce (abs x) m) QCheck.int

let arb_residue = arb_residue_of m

let test_reduce () =
  Alcotest.(check int) "positive" 5 (Icc_crypto.Fp.reduce 5 7);
  Alcotest.(check int) "negative" 5 (Icc_crypto.Fp.reduce (-2) 7);
  Alcotest.(check int) "wrap" 1 (Icc_crypto.Fp.reduce 8 7)

let test_small_ops () =
  Alcotest.(check int) "add" 1 (Icc_crypto.Fp.add 5 3 7);
  Alcotest.(check int) "sub" 2 (Icc_crypto.Fp.sub 5 3 7);
  Alcotest.(check int) "sub wrap" 5 (Icc_crypto.Fp.sub 3 5 7);
  Alcotest.(check int) "neg" 2 (Icc_crypto.Fp.neg 5 7);
  Alcotest.(check int) "neg zero" 0 (Icc_crypto.Fp.neg 0 7);
  Alcotest.(check int) "mul" 1 (Icc_crypto.Fp.mul 5 3 7);
  Alcotest.(check int) "pow" 4 (Icc_crypto.Fp.pow 2 2 7);
  Alcotest.(check int) "pow zero exp" 1 (Icc_crypto.Fp.pow 5 0 7)

let test_mul_matches_reference () =
  (* Cross-check double-and-add mul against int64 arithmetic on values whose
     product fits in 62 bits. *)
  let m' = 1 lsl 31 in
  for a = 0 to 40 do
    for b = 0 to 40 do
      let a = a * 52_000_001 mod m' and b = b * 37_000_003 mod m' in
      Alcotest.(check int)
        (Printf.sprintf "mul %d %d" a b)
        (a * b mod m')
        (Icc_crypto.Fp.mul a b m')
    done
  done

let test_check_modulus () =
  Alcotest.check_raises "even" (Invalid_argument
    "Fp.check_modulus: modulus must be odd, in [3, 2^61)") (fun () ->
      Icc_crypto.Fp.check_modulus 8);
  Icc_crypto.Fp.check_modulus m

let test_inv_error () =
  Alcotest.check_raises "zero" (Invalid_argument "Fp.inv: zero has no inverse")
    (fun () -> ignore (Icc_crypto.Fp.inv 0 7));
  Alcotest.check_raises "non-coprime"
    (Invalid_argument "Fp.inv: element not invertible") (fun () ->
      ignore (Icc_crypto.Fp.inv 3 9))

let prop_add_commutes =
  QCheck.Test.make ~name:"fp add commutes" ~count:200
    (QCheck.pair arb_residue arb_residue) (fun (a, b) ->
      Icc_crypto.Fp.add a b m = Icc_crypto.Fp.add b a m)

let prop_mul_commutes =
  QCheck.Test.make ~name:"fp mul commutes" ~count:200
    (QCheck.pair arb_residue arb_residue) (fun (a, b) ->
      Icc_crypto.Fp.mul a b m = Icc_crypto.Fp.mul b a m)

let prop_mul_distributes =
  QCheck.Test.make ~name:"fp mul distributes over add" ~count:200
    (QCheck.triple arb_residue arb_residue arb_residue) (fun (a, b, c) ->
      Icc_crypto.Fp.mul a (Icc_crypto.Fp.add b c m) m
      = Icc_crypto.Fp.add (Icc_crypto.Fp.mul a b m) (Icc_crypto.Fp.mul a c m) m)

let prop_inv_is_inverse =
  QCheck.Test.make ~name:"fp inv" ~count:200 arb_residue (fun a ->
      QCheck.assume (a <> 0);
      Icc_crypto.Fp.mul a (Icc_crypto.Fp.inv a m) m = 1)

let prop_pow_adds_exponents =
  QCheck.Test.make ~name:"fp pow adds exponents" ~count:100
    (QCheck.triple arb_residue (QCheck.int_bound 10_000) (QCheck.int_bound 10_000))
    (fun (a, e1, e2) ->
      Icc_crypto.Fp.pow a (e1 + e2) m
      = Icc_crypto.Fp.mul (Icc_crypto.Fp.pow a e1 m) (Icc_crypto.Fp.pow a e2 m) m)

(* The 31-bit-split fast multiplication (and its automatic fallback for
   moduli whose 2^61 residue is too large) must agree with the reference
   double-and-add path on every odd modulus in range. *)
let arb_odd_modulus =
  QCheck.map
    (fun x ->
      let m = 3 + (abs x mod ((1 lsl 61) - 4)) in
      if m land 1 = 0 then m + 1 else m)
    QCheck.int

let prop_fast_mul_matches_generic =
  QCheck.Test.make ~name:"fast mul = generic mul (random odd moduli)"
    ~count:1000
    (QCheck.triple arb_odd_modulus QCheck.int QCheck.int)
    (fun (m', a, b) ->
      let a = Icc_crypto.Fp.reduce (abs a) m'
      and b = Icc_crypto.Fp.reduce (abs b) m' in
      Icc_crypto.Fp.mul a b m' = Icc_crypto.Fp.mul_generic a b m')

let test_fast_mul_toggle () =
  (* The benchmark toggle only switches implementations, never results. *)
  Alcotest.(check bool) "fast mul on by default" true
    (Icc_crypto.Fp.fast_mul_enabled ());
  let checks () =
    List.iter
      (fun (a, b) ->
        Alcotest.(check int)
          (Printf.sprintf "mul %d %d" a b)
          (Icc_crypto.Fp.mul_generic a b m)
          (Icc_crypto.Fp.mul a b m))
      [ (m - 1, m - 1); (m - 2, m - 1); (1234567890123, 987654321098) ]
  in
  checks ();
  Icc_crypto.Fp.set_fast_mul false;
  checks ();
  Icc_crypto.Fp.set_fast_mul true

(* The fold serves both protocol moduli; on random residues it must agree
   with the reference path. *)
let prop_fold_matches_generic =
  let open Icc_crypto in
  QCheck.Test.make ~name:"fast mul = generic mul (Group.p and Group.q)"
    ~count:1000
    (QCheck.pair
       (QCheck.pair (arb_residue_of Group.p) (arb_residue_of Group.p))
       (QCheck.pair (arb_residue_of Group.q) (arb_residue_of Group.q)))
    (fun ((a, b), (c, d)) ->
      Fp.mul a b Group.p = Fp.mul_generic a b Group.p
      && Fp.mul c d Group.q = Fp.mul_generic c d Group.q)

(* Operands at the edges of the 31-bit split and of the final
   subtractions, every pair, on both moduli. *)
let test_fold_edges () =
  let open Icc_crypto in
  List.iter
    (fun m ->
      let edges =
        [ 0; 1; m - 1; m - 2; (1 lsl 30) - 1; (1 lsl 31) - 1; 1 lsl 31; m / 2 ]
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.(check int)
                (Printf.sprintf "mul %d %d mod %d" a b m)
                (Fp.mul_generic a b m) (Fp.mul a b m))
            edges)
        edges)
    [ Group.p; Group.q ]

(* The fast path allocates nothing: no closure, no boxed intermediate. *)
let test_fold_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let x = ref 5 in
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      x := Icc_crypto.Group.mul !x !x
    done;
    let words = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity !x);
    Alcotest.(check (float 0.)) "minor words over 10k Group.mul" 0. words
  end

let prop_sub_add_roundtrip =
  QCheck.Test.make ~name:"fp sub/add roundtrip" ~count:200
    (QCheck.pair arb_residue arb_residue) (fun (a, b) ->
      Icc_crypto.Fp.add (Icc_crypto.Fp.sub a b m) b m = a)

let suite =
  [
    Alcotest.test_case "reduce" `Quick test_reduce;
    Alcotest.test_case "small ops" `Quick test_small_ops;
    Alcotest.test_case "mul vs reference" `Quick test_mul_matches_reference;
    Alcotest.test_case "check_modulus" `Quick test_check_modulus;
    Alcotest.test_case "inv errors" `Quick test_inv_error;
    QCheck_alcotest.to_alcotest prop_add_commutes;
    QCheck_alcotest.to_alcotest prop_mul_commutes;
    QCheck_alcotest.to_alcotest prop_mul_distributes;
    QCheck_alcotest.to_alcotest prop_inv_is_inverse;
    QCheck_alcotest.to_alcotest prop_pow_adds_exponents;
    QCheck_alcotest.to_alcotest prop_sub_add_roundtrip;
    QCheck_alcotest.to_alcotest prop_fast_mul_matches_generic;
    Alcotest.test_case "fast mul toggle" `Quick test_fast_mul_toggle;
    QCheck_alcotest.to_alcotest prop_fold_matches_generic;
    Alcotest.test_case "fast mul edge operands" `Quick test_fold_edges;
    Alcotest.test_case "fast mul allocates nothing" `Quick
      test_fold_allocates_nothing;
  ]
