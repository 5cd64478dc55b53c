(* A party's view of the random beacon chain (paper §2.3, §3.2, §3.3).

   R_0 is a fixed genesis value; R_k is the unique threshold signature
   (under S_beacon) on a text binding k and R_{k-1}.  Once R_k is known it
   seeds a pseudo-random permutation of the parties: rank 0 is the round-k
   leader.  Because signatures are unique, every party derives the same
   permutation. *)

(* The round whose shares the party is handling: its signed text, the
   message point every share of it is a power of, and a verifier closed
   over both.  Built once per round, on first demand. *)
type current = {
  c_round : Types.round;
  c_msg : string;
  c_point : Icc_crypto.Group.elt;
  c_verify : Icc_crypto.Threshold_vuf.signature_share -> bool;
}

type t = {
  system : Icc_crypto.Keygen.system;
  my_key : Icc_crypto.Threshold_vuf.secret_share;
  sigmas : (Types.round, string) Hashtbl.t; (* round -> representation of R_k *)
  randomness : (Types.round, Icc_crypto.Sha256.t) Hashtbl.t;
  permutations : (Types.round, int array) Hashtbl.t; (* rank -> party id *)
  mutable current : current option; (* the newest round asked for *)
}

let create system my_key =
  let t =
    {
      system;
      my_key;
      sigmas = Hashtbl.create 64;
      randomness = Hashtbl.create 64;
      permutations = Hashtbl.create 64;
      current = None;
    }
  in
  Hashtbl.replace t.sigmas 0 Types.beacon_genesis;
  t

let known t round = Hashtbl.mem t.sigmas round

let message_for_round t round =
  if round < 1 then invalid_arg "Beacon.message_for_round: rounds start at 1";
  Option.map
    (fun prev_sigma -> Types.beacon_text ~round ~prev_sigma)
    (Hashtbl.find_opt t.sigmas (round - 1))

(* [round]'s cached text, point and verifier, built when [round] is newer
   than the cached one and R_{round-1} is known.  One slot suffices: a
   party signs, collects and combines round r+1's shares while round r's
   late shares trickle in, and those requests for an older round are
   served uncached, as before, so they never evict the round in progress.
   [None] for an older round or an unknown text. *)
let current t round =
  match t.current with
  | Some c when c.c_round = round -> Some c
  | Some c when c.c_round > round -> None
  | Some _ | None ->
      if round < 1 then None
      else
        Option.map
          (fun msg ->
            let params = t.system.Icc_crypto.Keygen.beacon in
            let point = Icc_crypto.Threshold_vuf.message_point msg in
            let c =
              {
                c_round = round;
                c_msg = msg;
                c_point = point;
                c_verify = Icc_crypto.Threshold_vuf.verify_share_at params ~point;
              }
            in
            t.current <- Some c;
            c)
          (message_for_round t round)

let my_share t round =
  let params = t.system.Icc_crypto.Keygen.beacon in
  match current t round with
  | Some c ->
      Some
        (Icc_crypto.Threshold_vuf.sign_share_at params t.my_key ~point:c.c_point
           c.c_msg)
  | None ->
      Option.map
        (Icc_crypto.Threshold_vuf.sign_share params t.my_key)
        (message_for_round t round)

let permutation_of_randomness ~n rand =
  let arr = Array.init n (fun i -> i + 1) in
  let rng = Icc_sim.Rng.of_string_seed (rand : Icc_crypto.Sha256.t :> string) in
  Icc_sim.Rng.shuffle_in_place rng arr;
  arr

(* [round]'s text and share verifier: the cached pair for the round in
   progress, a fresh one (hashing the point on each check) for an older
   round. *)
let text_and_verifier t round =
  match current t round with
  | Some c -> Some (c.c_msg, c.c_verify)
  | None ->
      if round < 1 then None
      else
        Option.map
          (fun msg ->
            ( msg,
              Icc_crypto.Threshold_vuf.verify_share
                t.system.Icc_crypto.Keygen.beacon msg ))
          (message_for_round t round)

(* The share verifier for a round, available once R_{round-1} is known.
   Returns [None] for rounds below 1 (a Byzantine peer controls the wire
   round number) and while the previous beacon is unknown. *)
let share_verifier t round = Option.map snd (text_and_verifier t round)

(* Attempt to compute R_round from the pool's shares.  The pool verifies
   shares in signer order only until it holds t+1 valid ones, each at most
   once (it marks survivors and evicts garbage, so a spoofed signer slot
   frees up for the genuine retransmission), and the combine step skips
   re-verification.  Those t+1 are the subset [combine]'s
   signer-dedup/selection rule picks from the verified multiset, so the
   resulting sigma — and every trace byte derived from it — is the same as
   verifying every share. *)
let try_compute t pool round =
  if known t round then true
  else
    match text_and_verifier t round with
    | None -> false
    | Some (msg, verify) -> (
        let params = t.system.Icc_crypto.Keygen.beacon in
        let shares = Pool.verified_beacon_shares pool ~round ~verify in
        if
          List.length shares
          < t.system.Icc_crypto.Keygen.t + 1
        then false
        else
          match Icc_crypto.Threshold_vuf.combine_preverified params shares with
          | None -> false
          | Some sig_ ->
              let rand = Icc_crypto.Threshold_vuf.randomness msg sig_ in
              Hashtbl.replace t.sigmas round
                (string_of_int sig_.Icc_crypto.Threshold_vuf.sigma);
              Hashtbl.replace t.randomness round rand;
              Hashtbl.replace t.permutations round
                (permutation_of_randomness ~n:t.system.Icc_crypto.Keygen.n rand);
              true)

let permutation t round = Hashtbl.find_opt t.permutations round

let rank_of t round party =
  match permutation t round with
  | None -> None
  | Some arr ->
      let rec find i = if arr.(i) = party then i else find (i + 1) in
      Some (find 0)

let leader t round =
  match permutation t round with None -> None | Some arr -> Some arr.(0)
