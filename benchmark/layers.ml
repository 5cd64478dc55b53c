(* The traced rep: spans and counts recorded from outside the program, at
   the boundaries the benchmark can reach through public functions, and the
   per-layer metrics derived from them.

   Spans wrap the transport ([net.tx] around [tx_broadcast]/[tx_unicast],
   [party.deliver] around [tr_deliver]); the engine observer timestamps
   every dispatch; a full trace-bus subscriber counts gossip and RBC detail
   events and keeps core events for the monitor replay; party 1's delivered
   messages are kept for the pool, codec and RBC replays.  A span's self
   time is its duration minus the time its child spans cover. *)

module Runner = Icc_core.Runner
module Message = Icc_core.Message

type kind = Tx | Deliver

let kind_name = function Tx -> "net.tx" | Deliver -> "party.deliver"

module Spans = struct
  type t = {
    mutable kinds : kind array;
    mutable start : float array;  (* ns *)
    mutable stop : float array;
    mutable child : float array;  (* ns covered by direct children *)
    mutable parent : int array;  (* -1: called from an engine handler *)
    mutable len : int;
    mutable top : int;  (* innermost open span *)
  }

  let create () =
    let c = 4096 in
    { kinds = Array.make c Tx; start = Array.make c 0.; stop = Array.make c 0.;
      child = Array.make c 0.; parent = Array.make c (-1); len = 0; top = -1 }

  let grow t =
    let ext a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.kinds <- ext t.kinds Tx;
    t.start <- ext t.start 0.;
    t.stop <- ext t.stop 0.;
    t.child <- ext t.child 0.;
    t.parent <- ext t.parent (-1)

  let within t kind f =
    if t.len = Array.length t.start then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.kinds.(i) <- kind;
    t.parent.(i) <- t.top;
    t.child.(i) <- 0.;
    t.top <- i;
    t.start.(i) <- Meter.now_ns ();
    let finish () =
      let stop = Meter.now_ns () in
      t.stop.(i) <- stop;
      let p = t.parent.(i) in
      if p >= 0 then t.child.(p) <- t.child.(p) +. (stop -. t.start.(i));
      t.top <- p
    in
    match f () with
    | () -> finish ()
    | exception e ->
        finish ();
        raise e

  let self_ns t i = t.stop.(i) -. t.start.(i) -. t.child.(i)

  let self_us t kind =
    let acc = ref [] in
    for i = t.len - 1 downto 0 do
      if t.kinds.(i) = kind then acc := (self_ns t i /. 1e3) :: !acc
    done;
    !acc

  (* One line per span: id, name, start and end (ns from [origin]),
     parent id (-1 for a span opened by an engine handler). *)
  let write t ~origin path =
    let oc = open_out path in
    output_string oc "id\tname\tstart_ns\tend_ns\tparent\n";
    for i = 0 to t.len - 1 do
      Printf.fprintf oc "%d\t%s\t%.0f\t%.0f\t%d\n" i (kind_name t.kinds.(i))
        (t.start.(i) -. origin) (t.stop.(i) -. origin) t.parent.(i)
    done;
    close_out oc
end

(* Replays run on a bounded prefix of what was captured. *)
let p1_cap = 60_000
let core_cap = 100_000

type t = {
  spans : Spans.t;
  gaps : Meter.Samples.t;  (* µs between consecutive engine dispatches *)
  mutable last_dispatch : float;
  mutable broadcasts : int;
  mutable self_deliveries : int;  (* a party receiving its own message *)
  mutable ctx : Runner.transport_ctx option;
  mutable p1 : Message.t list;  (* party 1's deliveries, newest first *)
  mutable p1_len : int;
  mutable core : (float * Icc_sim.Trace.event) list;  (* newest first *)
  mutable core_len : int;
  mutable gossip_requests : int;
  mutable gossip_acquires : int;
  mutable rbc_fragments : int;
  mutable rbc_reconstructs : int;
  mutable rbc_inconsistent : int;
}

let create () =
  { spans = Spans.create (); gaps = Meter.Samples.create ();
    last_dispatch = nan; broadcasts = 0; self_deliveries = 0; ctx = None; p1 = []; p1_len = 0;
    core = []; core_len = 0; gossip_requests = 0; gossip_acquires = 0;
    rbc_fragments = 0; rbc_reconstructs = 0; rbc_inconsistent = 0 }

(* Engine observer: the gap between two dispatches is the earlier
   handler's host time. *)
let on_dispatch t =
  let now = Meter.now_ns () in
  if not (Float.is_nan t.last_dispatch) then
    Meter.Samples.push t.gaps ((now -. t.last_dispatch) /. 1e3);
  t.last_dispatch <- now

(* The party that created a message, where one party did. *)
let origin : Message.t -> int option = function
  | Proposal p -> Some p.p_block.proposer
  | Notarization_share s | Finalization_share s -> Some s.s_share.signer
  | Beacon_share b -> Some b.b_signer
  | Pool_summary s -> Some s.ps_party
  | Pool_request r -> Some r.pr_party
  | Notarization _ | Finalization _ -> None

let wrap t (inner : Runner.transport) : Runner.transport =
 fun ctx ->
  t.ctx <- Some ctx;
  let deliver ~dst msg =
    if origin msg = Some dst then t.self_deliveries <- t.self_deliveries + 1;
    if dst = 1 && t.p1_len < p1_cap then begin
      t.p1 <- msg :: t.p1;
      t.p1_len <- t.p1_len + 1
    end;
    Spans.within t.spans Deliver (fun () -> ctx.Runner.tr_deliver ~dst msg)
  in
  let impl = inner { ctx with Runner.tr_deliver = deliver } in
  {
    Runner.tx_broadcast =
      (fun ~src msg ->
        t.broadcasts <- t.broadcasts + 1;
        Spans.within t.spans Tx (fun () -> impl.Runner.tx_broadcast ~src msg));
    tx_unicast =
      (fun ~src ~dst msg ->
        Spans.within t.spans Tx (fun () -> impl.Runner.tx_unicast ~src ~dst msg));
  }

(* Full trace-bus subscriber. *)
let sink t ~time (ev : Icc_sim.Trace.event) =
  (match ev with
  | Gossip_request _ -> t.gossip_requests <- t.gossip_requests + 1
  | Gossip_acquire _ -> t.gossip_acquires <- t.gossip_acquires + 1
  | Rbc_fragment _ -> t.rbc_fragments <- t.rbc_fragments + 1
  | Rbc_reconstruct _ -> t.rbc_reconstructs <- t.rbc_reconstructs + 1
  | Rbc_inconsistent _ -> t.rbc_inconsistent <- t.rbc_inconsistent + 1
  | _ -> ());
  if Icc_sim.Trace.level_of ev = Core && t.core_len < core_cap then begin
    t.core <- (time, ev) :: t.core;
    t.core_len <- t.core_len + 1
  end

(* --- replays and micro-timings ------------------------------------------ *)

(* The protocol message kinds every workload delivers to party 1. *)
let core_kinds =
  [ "proposal"; "notarization-share"; "notarization"; "finalization-share";
    "finalization"; "beacon-share" ]

(* Every kind the network can carry, for per-kind traffic. *)
let wire_kinds =
  core_kinds
  @ [ "pool-summary"; "pool-request"; "gossip-advert"; "gossip-request";
      "gossip-deliver"; "gossip-push"; "rbc-fragment" ]

(* Party 1's deliveries re-admitted into a fresh pool, as [Party.on_message]
   admits them (a proposal adds the parent certificate, the block and its
   authenticator; beacon shares are verified once the previous beacon is
   known).  Only the [Pool.add_*] calls are timed; a message is useful when
   some admission returned [true]. *)
let pool_replay (system : Icc_crypto.Keygen.system)
    (keys : Icc_crypto.Keygen.party_keys) msgs =
  let pool = Icc_core.Pool.create system in
  let beacon = Icc_core.Beacon.create system keys.beacon_key in
  let per_kind = Hashtbl.create 8 (* kind -> (ns, admissions) *) in
  let useful = ref 0 and admitted = ref 0 in
  List.iter
    (fun (msg : Message.t) ->
      let admit () =
        match msg with
        | Proposal { p_block; p_authenticator; p_parent_cert } ->
            let c1 =
              match p_parent_cert with
              | Some cert -> Icc_core.Pool.add_notarization pool cert
              | None -> false
            in
            let c2 = Icc_core.Pool.add_block pool p_block in
            let c3 =
              Icc_core.Pool.add_authenticator pool ~round:p_block.round
                ~proposer:p_block.proposer
                ~block_hash:(Icc_core.Block.hash p_block) p_authenticator
            in
            Some (c1 || c2 || c3)
        | Notarization_share s ->
            Some (Icc_core.Pool.add_notarization_share pool s)
        | Notarization c -> Some (Icc_core.Pool.add_notarization pool c)
        | Finalization_share s ->
            Some (Icc_core.Pool.add_finalization_share pool s)
        | Finalization c -> Some (Icc_core.Pool.add_finalization pool c)
        | Beacon_share { b_round; b_share; _ } ->
            if b_round < 1 then None
            else
              Some
                (Icc_core.Pool.add_beacon_share pool ~round:b_round
                   ?verify:(Icc_core.Beacon.share_verifier beacon b_round)
                   b_share)
        | Pool_summary _ | Pool_request _ -> None
      in
      let t0 = Meter.now_ns () in
      let verdict = admit () in
      let dt = Meter.now_ns () -. t0 in
      match verdict with
      | None -> ()
      | Some changed ->
          let k = Message.kind msg in
          let ns, c = Option.value ~default:(0., 0) (Hashtbl.find_opt per_kind k) in
          Hashtbl.replace per_kind k (ns +. dt, c + 1);
          incr admitted;
          if changed then incr useful;
          (match msg with
          | Beacon_share { b_round; _ } ->
              ignore (Icc_core.Beacon.try_compute beacon pool b_round)
          | _ -> ()))
    msgs;
  List.map
    (fun k ->
      let ns, c = Option.value ~default:(0., 0) (Hashtbl.find_opt per_kind k) in
      ("pool.admit_us." ^ k, "us", ns /. 1e3 /. float_of_int (max 1 c)))
    core_kinds
  @ [ ("pool.useful_frac", "fraction",
       float_of_int !useful /. float_of_int (max 1 !admitted)) ]

let codec_replay ~n msgs =
  let per_kind =
    List.concat_map
      (fun k ->
        let sample =
          Array.of_list
            (List.filteri (fun i _ -> i < 256)
               (List.filter (fun m -> Message.kind m = k) msgs))
        in
        let len = Array.length sample in
        if len = 0 then []
        else begin
          let encoded = Array.map Icc_core.Codec.encode sample in
          let i = ref 0 in
          let enc =
            Meter.us_per_op ~budget:0.02 (fun () ->
                ignore (Icc_core.Codec.encode sample.(!i mod len));
                incr i)
          in
          let dec =
            Meter.us_per_op ~budget:0.02 (fun () ->
                ignore (Icc_core.Codec.decode encoded.(!i mod len));
                incr i)
          in
          [ ("codec.encode_us." ^ k, "us", enc); ("codec.decode_us." ^ k, "us", dec) ]
        end)
      core_kinds
  in
  let bytes, modelled =
    List.fold_left
      (fun (b, m) msg ->
        ( b + String.length (Icc_core.Codec.encode msg),
          m + Message.wire_size ~n msg ))
      (0, 0) msgs
  in
  per_kind
  @ [ ("codec.bytes_vs_modelled", "ratio",
       float_of_int bytes /. float_of_int (max 1 modelled)) ]

(* Reed–Solomon and Merkle costs at the size of the largest proposal bundle
   party 1 received, with ICC2's k = t+1 of n fragments. *)
let rbc_micro ~n ~t msgs =
  let bundle =
    List.fold_left
      (fun acc (m : Message.t) ->
        match m with
        | Proposal _ ->
            let s = Icc_rbc.Rbc.serialize m in
            if String.length s > String.length acc then s else acc
        | _ -> acc)
      "" msgs
  in
  let k = t + 1 in
  let coded = Icc_erasure.Reed_solomon.encode ~k ~n bundle in
  let frags = List.init k (fun i -> (n - k + i, coded.fragments.(n - k + i))) in
  let leaves = Array.to_list coded.fragments in
  let root = Icc_crypto.Merkle.root_of_leaves leaves in
  let proof = Icc_crypto.Merkle.prove leaves 0 in
  let leaf = coded.fragments.(0) in
  [ ("rbc.rs_encode_us", "us",
     Meter.us_per_op (fun () -> ignore (Icc_erasure.Reed_solomon.encode ~k ~n bundle)));
    ("rbc.rs_decode_us", "us",
     Meter.us_per_op (fun () ->
         ignore
           (Icc_erasure.Reed_solomon.decode ~k ~n
              ~data_size:(String.length bundle) frags)));
    ("rbc.merkle_prove_us", "us",
     Meter.us_per_op (fun () -> ignore (Icc_crypto.Merkle.prove leaves 0)));
    ("rbc.merkle_verify_us", "us",
     Meter.us_per_op (fun () -> ignore (Icc_crypto.Merkle.verify ~root ~leaf proof)));
  ]

let counter name = List.assoc_opt name (Icc_crypto.Counters.snapshot ())

(* The crypto counters reported per block.  Read by name: a counter the
   library no longer registers is left out. *)
let per_block_counters =
  [ "sha256_digests"; "schnorr_signs"; "schnorr_verifies"; "dleq_proves";
    "dleq_verifies"; "pow_generic"; "pow_fixed_base"; "multi_exps" ]

(* µs/op of the crypto calls the protocol makes, on the run's own keys, and
   the modelled crypto time of the run: each counted operation priced at its
   µs/op, with the digests already inside those operations priced once. *)
let crypto_micro (system : Icc_crypto.Keygen.system)
    (keys : Icc_crypto.Keygen.party_keys array) ~counters =
  let open Icc_crypto in
  let n = system.n and t = system.t in
  let text = Icc_core.Types.beacon_genesis ^ "benchmark" in
  let k1 = keys.(0) in
  let sig1 = Schnorr.sign k1.auth text in
  let share1 = Threshold_vuf.sign_share system.beacon k1.beacon_key text in
  let vshares =
    List.init (t + 1) (fun i ->
        Threshold_vuf.sign_share system.beacon keys.(i).beacon_key text)
  in
  let mshares =
    List.init (n - t) (fun i ->
        Multisig.sign_share system.notary keys.(i).notary_key text)
  in
  let digests_in f =
    let before = Option.value ~default:0 (counter "sha256_digests") in
    f ();
    Option.value ~default:0 (counter "sha256_digests") - before
  in
  let sha_input = String.make 256 'x' in
  let ops =
    [ ("schnorr_signs", "schnorr_sign", fun () -> ignore (Schnorr.sign k1.auth text));
      ("schnorr_verifies", "schnorr_verify",
       fun () -> ignore (Schnorr.verify system.auth_pub.(0) text sig1));
      ("dleq_proves", "vuf_sign_share",
       fun () -> ignore (Threshold_vuf.sign_share system.beacon k1.beacon_key text));
      ("dleq_verifies", "vuf_verify_share",
       fun () -> ignore (Threshold_vuf.verify_share system.beacon text share1));
    ]
  in
  let timed = List.map (fun (c, name, f) -> (c, name, Meter.us_per_op f, digests_in f)) ops in
  let sha_us = Meter.us_per_op (fun () -> ignore (Sha256.digest_string sha_input)) in
  let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  let inner_digests =
    List.fold_left (fun acc (c, _, _, d) -> acc +. (count c *. float_of_int d)) 0. timed
  in
  let modelled_us =
    List.fold_left (fun acc (c, _, us, _) -> acc +. (count c *. us)) 0. timed
    +. (Float.max 0. (count "sha256_digests" -. inner_digests) *. sha_us)
  in
  let micro =
    ("crypto.sha256_us", "us", sha_us)
    :: List.map (fun (_, name, us, _) -> ("crypto." ^ name ^ "_us", "us", us)) timed
    @ [ ("crypto.vuf_combine_us", "us",
         Meter.us_per_op (fun () ->
             ignore (Threshold_vuf.combine system.beacon text vshares)));
        ("crypto.multisig_combine_us", "us",
         Meter.us_per_op (fun () ->
             ignore (Multisig.combine system.notary text mshares))) ]
  in
  (micro, modelled_us /. 1e6)

let monitor_replay events =
  let m = Icc_sim.Monitor.create (Icc_sim.Monitor.default_config ~delta:Workloads.delta_bnd ()) in
  let t0 = Meter.now_ns () in
  List.iter (fun (time, ev) -> Icc_sim.Monitor.observe m ~time ev) events;
  (Meter.now_ns () -. t0) /. 1e3 /. float_of_int (max 1 (List.length events))

let smr_replay chain =
  let cmds =
    List.fold_left
      (fun acc (b : Icc_core.Block.t) -> acc + List.length b.payload.commands)
      0 chain
  in
  let us =
    Meter.us_per_op (fun () ->
        Icc_smr.Replica.apply_chain (Icc_smr.Replica.create ()) chain)
  in
  us /. float_of_int (max 1 cmds)

let keygen_s ~n =
  let t = Icc_crypto.Keygen.max_corrupt ~n in
  let once () =
    let rng = Icc_sim.Rng.create 1 in
    let t0 = Meter.now_s () in
    ignore (Icc_crypto.Keygen.generate ~n ~t (fun () -> Icc_sim.Rng.bits61 rng));
    Meter.now_s () -. t0
  in
  Meter.median (List.init 3 (fun _ -> once ()))

(* Every per-layer metric the traced rep can compute on its own; the parent
   adds those that compare reps (runner round walls, gc, trace overhead). *)
let metrics t ~(result : Runner.result) ~blocks ~run_s ~events ~counters =
  let ctx = Option.get t.ctx in
  let n = ctx.tr_n and tc = ctx.tr_t in
  let blocks_f = float_of_int (max 1 blocks) in
  let per_block x = float_of_int x /. blocks_f in
  let metrics = result.metrics in
  let p1 = List.rev t.p1 in
  let tx = Spans.self_us t.spans Tx and deliver = Spans.self_us t.spans Deliver in
  let n_tx = List.length tx and n_deliver = List.length deliver in
  let sum = List.fold_left ( +. ) 0. in
  let party_self_s = sum deliver /. 1e6 in
  let gaps = Meter.Samples.to_list t.gaps in
  let micro, modelled_s = crypto_micro ctx.tr_system ctx.tr_keys ~counters in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  List.concat
    [
      [ ("runner.keygen_s", "s", keygen_s ~n);
        ("engine.events_per_block", "count", per_block events);
        ("engine.handler_us_p50", "us", Meter.percentile 50. gaps);
        ("engine.handler_us_p99", "us", Meter.percentile 99. gaps) ];
      List.map
        (fun k ->
          ("net.msgs_per_block." ^ k, "count",
           per_block (Icc_sim.Metrics.msgs_of_kind metrics k)))
        wire_kinds;
      [ ("net.msgs_per_block", "count", per_block (Icc_sim.Metrics.total_msgs metrics));
        ("net.wire_kb_per_block", "KiB",
         per_block (Icc_sim.Metrics.total_bytes metrics) /. 1024.);
        ("net.tx_us_per_call", "us", sum tx /. float_of_int (max 1 n_tx));
        ("net.recv_self_share", "fraction", ratio t.self_deliveries n_deliver);
        ("party.deliveries_per_block", "count", per_block n_deliver);
        ("party.on_message_us_mean", "us", sum deliver /. float_of_int (max 1 n_deliver));
        ("party.on_message_us_p99", "us", Meter.percentile 99. deliver);
        ("party.share", "fraction", party_self_s /. run_s) ];
      pool_replay ctx.tr_system ctx.tr_keys.(0) p1;
      List.filter_map
        (fun c ->
          Option.map
            (fun v -> ("crypto." ^ c ^ "_per_block", "count", per_block v))
            (List.assoc_opt c counters))
        per_block_counters;
      micro;
      [ ("crypto.modelled_ms_per_block", "ms", modelled_s *. 1e3 /. blocks_f);
        ("crypto.reconcile_ratio", "ratio", modelled_s /. party_self_s) ];
      codec_replay ~n p1;
      [ ("gossip.amplification", "ratio",
         ratio (Icc_sim.Metrics.total_msgs metrics) t.broadcasts);
        ("gossip.requests_per_acquire", "ratio",
         ratio t.gossip_requests t.gossip_acquires);
        ("rbc.frags_per_block", "count", per_block t.rbc_fragments);
        ("rbc.reconstructs_per_block", "count", per_block t.rbc_reconstructs);
        ("rbc.inconsistent", "count", float_of_int t.rbc_inconsistent) ];
      rbc_micro ~n ~t:tc p1;
      [ ("monitor.observe_us_per_event", "us", monitor_replay (List.rev t.core));
        ("smr.apply_us_per_cmd", "us",
         smr_replay (match result.outputs with (_, c) :: _ -> c | [] -> [])) ];
    ]
