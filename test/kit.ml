(* Test kit: a small key-complete deployment plus helpers for crafting
   correctly signed protocol messages outside a running simulation. *)

let rng = Icc_sim.Rng.create 0x717
let rand_bits () = Icc_sim.Rng.bits61 rng

type t = {
  system : Icc_crypto.Keygen.system;
  keys : Icc_crypto.Keygen.party_keys array; (* index 0 = party 1 *)
}

let make ?(n = 4) ?(t = 1) () =
  let system, keys = Icc_crypto.Keygen.generate ~n ~t rand_bits in
  { system; keys = Array.of_list keys }

let key kit i = kit.keys.(i - 1)

let block ?(payload = Icc_core.Types.empty_payload) ~round ~proposer ~parent ()
    =
  let parent_hash =
    match parent with
    | Some b -> Icc_core.Block.hash b
    | None -> Icc_core.Block.root_hash
  in
  Icc_core.Block.create ~round ~proposer ~parent_hash ~payload

let authenticator kit (b : Icc_core.Block.t) =
  Icc_crypto.Schnorr.sign
    (key kit b.Icc_core.Block.proposer).Icc_crypto.Keygen.auth
    (Icc_core.Types.authenticator_text ~round:b.Icc_core.Block.round
       ~proposer:b.Icc_core.Block.proposer
       ~block_hash:(Icc_core.Block.hash b))

let notarization_share kit ~signer (b : Icc_core.Block.t) =
  let block_hash = Icc_core.Block.hash b in
  {
    Icc_core.Types.s_round = b.Icc_core.Block.round;
    s_proposer = b.Icc_core.Block.proposer;
    s_block_hash = block_hash;
    s_share =
      Icc_crypto.Multisig.sign_share kit.system.Icc_crypto.Keygen.notary
        (key kit signer).Icc_crypto.Keygen.notary_key
        (Icc_core.Types.notarization_text ~round:b.Icc_core.Block.round
           ~proposer:b.Icc_core.Block.proposer ~block_hash);
  }

let finalization_share kit ~signer (b : Icc_core.Block.t) =
  let block_hash = Icc_core.Block.hash b in
  {
    Icc_core.Types.s_round = b.Icc_core.Block.round;
    s_proposer = b.Icc_core.Block.proposer;
    s_block_hash = block_hash;
    s_share =
      Icc_crypto.Multisig.sign_share kit.system.Icc_crypto.Keygen.final
        (key kit signer).Icc_crypto.Keygen.final_key
        (Icc_core.Types.finalization_text ~round:b.Icc_core.Block.round
           ~proposer:b.Icc_core.Block.proposer ~block_hash);
  }

let cert_of_shares kit ~kind (b : Icc_core.Block.t) signers =
  let block_hash = Icc_core.Block.hash b in
  let text, params, get_key =
    match kind with
    | `Notarization ->
        ( Icc_core.Types.notarization_text ~round:b.Icc_core.Block.round
            ~proposer:b.Icc_core.Block.proposer ~block_hash,
          kit.system.Icc_crypto.Keygen.notary,
          fun i -> (key kit i).Icc_crypto.Keygen.notary_key )
    | `Finalization ->
        ( Icc_core.Types.finalization_text ~round:b.Icc_core.Block.round
            ~proposer:b.Icc_core.Block.proposer ~block_hash,
          kit.system.Icc_crypto.Keygen.final,
          fun i -> (key kit i).Icc_crypto.Keygen.final_key )
  in
  let shares =
    List.map (fun i -> Icc_crypto.Multisig.sign_share params (get_key i) text)
      signers
  in
  match Icc_crypto.Multisig.combine params text shares with
  | Some multisig ->
      {
        Icc_core.Types.c_round = b.Icc_core.Block.round;
        c_proposer = b.Icc_core.Block.proposer;
        c_block_hash = block_hash;
        c_multisig = multisig;
      }
  | None -> failwith "Kit.cert_of_shares: combine failed"

let notarization kit b signers = cert_of_shares kit ~kind:`Notarization b signers
let finalization kit b signers = cert_of_shares kit ~kind:`Finalization b signers

(* Insert a fully certified block into a pool: block + authenticator +
   notarization by the first n-t parties. *)
let admit_notarized kit pool (b : Icc_core.Block.t) =
  let n = kit.system.Icc_crypto.Keygen.n
  and t = kit.system.Icc_crypto.Keygen.t in
  let signers = List.init (n - t) (fun i -> i + 1) in
  ignore (Icc_core.Pool.add_block pool b);
  ignore
    (Icc_core.Pool.add_authenticator pool ~round:b.Icc_core.Block.round
       ~proposer:b.Icc_core.Block.proposer
       ~block_hash:(Icc_core.Block.hash b)
       (authenticator kit b));
  ignore (Icc_core.Pool.add_notarization pool (notarization kit b signers))

(* A transport context for driving a dissemination sub-layer directly,
   outside a run: fixed [delay] links with no hold, nemesis or adversary. *)
let transport_ctx kit ~t ?(rng = Icc_sim.Rng.create 0)
    ?(is_active = fun _ -> true) (env : Icc_sim.Transport.env) ~delay ~deliver
    =
  {
    Icc_core.Runner.tr_engine = env.engine;
    tr_trace = env.trace;
    tr_n = env.n;
    tr_t = t;
    tr_rng = rng;
    tr_delay_model = Icc_sim.Network.Fixed delay;
    tr_async_until = 0.;
    tr_fault = None;
    tr_adversary = None;
    tr_is_active = is_active;
    tr_deliver = deliver;
    tr_system = kit.system;
    tr_keys = kit.keys;
  }
