(* (t, h, n)-threshold signatures via aggregation of individual signatures —
   the schemes S_notary and S_final of the paper (§2.3 approaches (i)/(ii),
   §3.2), instantiated with h = n - t by the protocols.

   A signature share is an ordinary Schnorr signature by one party; a
   combined signature is a set of >= h shares from distinct parties together
   with the signer set.  This is exactly approach (i) of the paper, which
   also matches the verification semantics of BLS multi-signatures
   (approach (ii)): the combined object identifies the signatories.
   Wire sizes are modeled at BLS-multisignature scale. *)

type params = {
  n : int;
  threshold_h : int; (* shares needed to combine; protocols use n - t *)
  public_keys : Schnorr.public_key array; (* index 0 = party 1 *)
}

type secret = {
  owner : int; (* 1-based *)
  key : Schnorr.secret_key;
}

type share = {
  signer : int; (* 1-based *)
  signature : Schnorr.signature;
}

type signature = {
  signers : int list; (* sorted, distinct, length >= threshold_h *)
  signatures : Schnorr.signature list; (* aligned with signers *)
}

let setup ~threshold_h ~n rand_bits =
  if not (threshold_h >= 1 && threshold_h <= n) then
    invalid_arg "Multisig.setup: need 1 <= h <= n";
  let pairs = List.init n (fun _ -> Schnorr.keygen rand_bits) in
  let params =
    {
      n;
      threshold_h;
      public_keys = Array.of_list (List.map snd pairs);
    }
  in
  let secrets =
    List.mapi (fun i (sk, _) -> { owner = i + 1; key = sk }) pairs
  in
  (params, secrets)

let sign_share _params { owner; key } msg =
  { signer = owner; signature = Schnorr.sign key msg }

let in_range params signer = signer >= 1 && signer <= params.n

let verify_share params msg { signer; signature } =
  in_range params signer
  && Schnorr.verify params.public_keys.(signer - 1) msg signature

(* A member [known] vouches for was verified on [msg] by the caller, so
   only its range check is re-run. *)
let verify_shares ?(known = fun _ -> false) params msg shares : bool list =
  List.map
    (fun s ->
      if known s then in_range params s.signer else verify_share params msg s)
    shares

let combine ?known params msg shares : signature option =
  Icc_obs.Profile.span "crypto.multisig_combine" @@ fun () ->
  (* Filter before deduplicating so a forged share cannot evict a genuine
     one bearing the same signer index. *)
  let valid =
    List.combine shares (verify_shares ?known params msg shares)
    |> List.filter_map (fun (s, ok) -> if ok then Some s else None)
    |> List.sort_uniq (fun a b -> compare a.signer b.signer)
  in
  if List.length valid < params.threshold_h then None
  else
    Some
      {
        signers = List.map (fun s -> s.signer) valid;
        signatures = List.map (fun s -> s.signature) valid;
      }

let verify ?known params msg { signers; signatures } =
  List.length signers >= params.threshold_h
  && List.length signers = List.length signatures
  && List.sort_uniq compare signers = signers
  && List.for_all Fun.id
       (verify_shares ?known params msg
          (List.map2
             (fun signer signature -> { signer; signature })
             signers signatures))

(* Modeled wire size (BLS multi-signature scale): a share is one 48-byte
   signature. *)
let share_wire_size = 48
