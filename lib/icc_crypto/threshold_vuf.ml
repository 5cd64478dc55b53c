(* (t, t+1, n)-threshold unique signatures — the scheme S_beacon backing the
   random beacon (paper §2.3, approach (iii), and §3.2).

   Construction: the DDH-based threshold "coin" of Cachin–Kursawe–Shoup
   (the paper's reference [10]), which is the pairing-free analogue of
   threshold BLS:

     - a dealer Shamir-shares a secret s; party i holds sk_i = f(i) and
       publishes vk_i = g^{f(i)}; the global key is pk = g^s;
     - the signature on message m is the unique value sigma = H2G(m)^s;
     - party i's signature share is H2G(m)^{sk_i} together with a
       Chaum–Pedersen DLEQ proof that it matches vk_i;
     - any t+1 valid shares combine by Lagrange interpolation in the
       exponent.

   Uniqueness: sigma is a deterministic function of (pk, m), which is what
   the random beacon requires.  Since verifying the combined value without
   pairings requires the shares, combined signatures carry a (t+1)-share
   certificate; wire sizes are modeled at BLS scale separately. *)

type params = {
  threshold_t : int; (* t: max corruptions; t+1 shares reconstruct *)
  n : int;
  global_pk : Group.elt; (* g^s *)
  verification_keys : Group.elt array; (* vk_i = g^{f(i)}, index 0 = party 1 *)
}

type secret_share = {
  owner : int; (* 1-based *)
  sk_i : Group.scalar;
}

type signature_share = {
  signer : int; (* 1-based *)
  value : Group.elt; (* H2G(m)^{sk_i} *)
  proof : Dleq.proof;
}

type signature = {
  sigma : Group.elt; (* H2G(m)^s *)
  certificate : signature_share list; (* exactly t+1 verified shares *)
}

let setup ~threshold_t ~n rand_bits =
  if not (threshold_t >= 0 && threshold_t < n) then
    invalid_arg "Threshold_vuf.setup: need 0 <= t < n";
  let secret = Group.random_scalar_nonzero rand_bits in
  let _, shares = Shamir.deal ~threshold_t ~n ~secret rand_bits in
  let params =
    {
      threshold_t;
      n;
      global_pk = Group.base_pow secret;
      verification_keys =
        Array.of_list
          (List.map (fun (s : Shamir.share) -> Group.base_pow s.value) shares);
    }
  in
  let secrets =
    List.map
      (fun (s : Shamir.share) -> { owner = s.index; sk_i = s.value })
      shares
  in
  (params, secrets)

let message_point msg = Group.hash_to_group (Sha256.digest_string msg)

let sign_share_at _params { owner; sk_i } ~point msg : signature_share =
  {
    signer = owner;
    (* The message point recurs for every share of the round, so it
       rides the fixed-base cache like the proof's base2 pows. *)
    value = Group.pow_cached point sk_i;
    proof =
      Dleq.prove ~base1:Group.generator ~base2:point ~exponent:sk_i ~msg_tag:msg;
  }

let sign_share params sk msg =
  sign_share_at params sk ~point:(message_point msg) msg

let in_range params (share : signature_share) =
  share.signer >= 1 && share.signer <= params.n

let verify_share_at params ~point (share : signature_share) =
  in_range params share
  && Dleq.verify ~base1:Group.generator ~base2:point
       ~a:params.verification_keys.(share.signer - 1)
       ~b:share.value share.proof

(* The range check comes first, so an out-of-range share costs no hash. *)
let verify_share params msg share =
  in_range params share
  && verify_share_at params ~point:(message_point msg) share

let share_equal a b =
  Int.equal a.signer b.signer
  && Group.elt_equal a.value b.value
  && Group.scalar_equal a.proof.Dleq.challenge b.proof.Dleq.challenge
  && Group.scalar_equal a.proof.Dleq.response b.proof.Dleq.response
  && Group.elt_equal a.proof.Dleq.commit1 b.proof.Dleq.commit1
  && Group.elt_equal a.proof.Dleq.commit2 b.proof.Dleq.commit2

(* Lagrange interpolation at 0 in the exponent. *)
let interpolate shares =
  let idxs = List.map (fun s -> s.signer) shares in
  List.fold_left
    (fun acc s ->
      Group.mul acc (Group.pow s.value (Shamir.lagrange_coeff_at_zero idxs s.signer)))
    Group.one shares

(* Shared selection rule: dedupe by signer, keep the t+1 lowest signer
   indices.  [combine] and [combine_preverified] must pick the identical
   subset from the same share multiset, or the interpolated sigma (and
   every trace byte derived from it) would differ between the verified and
   pre-verified paths.  The pool's lazy walk ([Pool.verified_beacon_shares])
   hands over exactly the t+1 lowest valid signers, which this rule keeps
   as they are. *)
let select params shares : signature option =
  let uniq = List.sort_uniq (fun a b -> compare a.signer b.signer) shares in
  if List.length uniq < params.threshold_t + 1 then None
  else
    let chosen = List.filteri (fun i _ -> i <= params.threshold_t) uniq in
    Some { sigma = interpolate chosen; certificate = chosen }

let combine params msg shares : signature option =
  Icc_obs.Profile.span "crypto.vuf_combine" @@ fun () ->
  (* Filter before deduplicating so a forged share cannot evict a genuine
     one bearing the same signer index. *)
  select params (List.filter (verify_share params msg) shares)

let combine_preverified params shares : signature option =
  Icc_obs.Profile.span "crypto.vuf_combine" @@ fun () ->
  (* Shares must already have passed {!verify_share} (the pool verifies
     the t+1 lowest signers when the beacon is combined); skipping
     re-verification makes combining O(t) group ops instead of O(t) DLEQ
     checks per attempt. *)
  select params shares

let verify params msg { sigma; certificate } =
  List.length certificate = params.threshold_t + 1
  && List.for_all (verify_share params msg) certificate
  && List.length (List.sort_uniq (fun a b -> compare a.signer b.signer) certificate)
     = params.threshold_t + 1
  && Group.elt_equal sigma (interpolate certificate)

let randomness msg { sigma; _ } =
  Sha256.digest_string (Printf.sprintf "vuf-out|%s|%d" msg sigma)

(* Modeled wire sizes (production BLS scale): a share is a 48-byte group
   element plus a 96-byte proof; a combined signature is 48 bytes. *)
let share_wire_size = 144
let signature_wire_size = 48
