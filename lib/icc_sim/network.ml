(* Simulated message-passing network between n parties (1-based ids).

   The model follows the paper's assumptions (§1, §3.1):
     - the only primitive is broadcast (unicast is exposed for the gossip
       and erasure-RBC sub-layers, which the paper's ICC1/ICC2 use);
     - every message from an honest party is eventually delivered;
     - the adversary schedules delivery: per-link delays are sampled from a
       pluggable model, and asynchronous intervals hold messages (released
       when the interval ends), modeling partial synchrony.

   A party's broadcast is delivered to itself with zero delay (its own pool
   holds its own messages) and is not counted as network traffic.

   Every transmission is announced on the {!Trace} bus: [Net_send] (core,
   drives {!Metrics}), and — only when a detail subscriber is present —
   [Net_hold] for messages caught by an asynchronous interval and
   [Net_deliver] at the moment the handler runs. *)

type delay_model =
  | Fixed of float
  | Uniform of { rng : Rng.t; lo : float; hi : float }
  | Matrix of float array array (* one-way delay, indices 1..n *)
  | Jitter of { rng : Rng.t; base : float; jitter : float }

type 'msg t = {
  engine : Engine.t;
  n : int;
  trace : Trace.t;
  delay_model : delay_model;
  hold_until : float; (* global asynchronous interval end *)
  fault : Fault.t option; (* nemesis interposition *)
  adversary : Adversary.t option; (* corrupt-sender interposition *)
  mutable handler : dst:int -> src:int -> 'msg -> unit;
  mutable delivered : int;
}

let create engine ~n ~trace ~delay_model ?(hold_until = neg_infinity) ?fault
    ?adversary () =
  {
    engine;
    n;
    trace;
    delay_model;
    hold_until;
    fault;
    adversary;
    handler = (fun ~dst:_ ~src:_ _ -> ());
    delivered = 0;
  }

let set_handler t handler = t.handler <- handler

let sample_delay t ~src ~dst =
  match t.delay_model with
  | Fixed d -> d
  | Uniform { rng; lo; hi } -> Rng.float_range rng lo hi
  | Matrix m -> m.(src).(dst)
  | Jitter { rng; base; jitter } -> base +. Rng.float rng jitter

(* Deliver without traffic accounting: self-delivery path. *)
let deliver_self t ~src msg =
  Engine.schedule t.engine ~delay:0. (fun () -> t.handler ~dst:src ~src msg)

(* Schedule one remote transmission.  The delay is sampled before anything
   else so the RNG stream is independent of the hold, the fault state and
   tracing; the nemesis (when present) is consulted exactly once per
   transmission, also independent of the hold.

   Event batching happens below this layer: the engine appends an event
   due at the same time as its most recently pushed heap node to that
   node's FIFO run, so the n-1 same-release deliveries of a broadcast
   under a fixed-delay model cost one heap node total — each call here
   after the first is an O(1) append, not an O(log events) push. *)
let transmit t ~src ~dst ~size ~kind msg =
  Icc_obs.Profile.span "net.transmit" @@ fun () ->
  let now = Engine.now t.engine in
  let d = sample_delay t ~src ~dst in
  (* The adversary rules a corrupt sender's copy before the nemesis sees
     it: a censored/straggled/withheld transmission never reaches the
     fault layer (the corrupt party "never sent it").  Each layer draws
     from its own stream, so adding one never shifts the other. *)
  let adv_drop, adv_delay =
    match t.adversary with
    | None -> (false, 0.)
    | Some a ->
        let v = Adversary.on_send a ~now ~src ~dst ~kind in
        (v.Adversary.av_drop, v.Adversary.av_delay)
  in
  let deliveries, fault_floor =
    if adv_drop then ([], neg_infinity)
    else
      match t.fault with
      | None -> ([ 0. ], neg_infinity)
      | Some f ->
          let v = Fault.on_transmit f ~now ~src ~dst ~kind in
          (v.Fault.deliveries, v.Fault.release_floor)
  in
  let d = d +. adv_delay in
  let release = max (max now t.hold_until) fault_floor in
  if deliveries <> [] && release > now && Trace.detailed t.trace then
    Trace.emit t.trace ~time:now (Trace.Net_hold { src; dst; kind; release });
  let deliver () =
    t.delivered <- t.delivered + 1;
    if Trace.detailed t.trace then
      Trace.emit t.trace ~time:(Engine.now t.engine)
        (Trace.Net_deliver { src; dst; kind; size });
    t.handler ~dst ~src msg
  in
  match deliveries with
  | [ extra ] ->
      (* fault-free / single-delivery fast path: one closure, no list walk *)
      Engine.schedule_at t.engine ~time:(release +. d +. extra) deliver
  | deliveries ->
      List.iter
        (fun extra ->
          Engine.schedule_at t.engine ~time:(release +. d +. extra) deliver)
        deliveries

let unicast t ~src ~dst ~size ~kind msg =
  if dst < 1 || dst > t.n then invalid_arg "Network.unicast: bad destination";
  if dst = src then deliver_self t ~src msg
  else begin
    Trace.emit t.trace ~time:(Engine.now t.engine)
      (Trace.Net_send { src; dst; kind; size; copies = 1 });
    transmit t ~src ~dst ~size ~kind msg
  end

let broadcast t ~src ~size ~kind msg =
  (* Same message to all parties; self copy is free and immediate. *)
  Trace.emit t.trace ~time:(Engine.now t.engine)
    (Trace.Net_send { src; dst = 0; kind; size; copies = t.n - 1 });
  for dst = 1 to t.n do
    if dst = src then deliver_self t ~src msg
    else transmit t ~src ~dst ~size ~kind msg
  done

let delivered t = t.delivered

(* An RTT matrix in the paper's observed range (6–110 ms ping RTT between
   data centers): one-way delay = RTT/2, symmetric, diagonal ~0.2 ms. *)
let wan_matrix rng ~n ~rtt_lo ~rtt_hi =
  let m = Array.make_matrix (n + 1) (n + 1) 0. in
  for i = 1 to n do
    for j = i + 1 to n do
      let d = Rng.float_range rng (rtt_lo /. 2.) (rtt_hi /. 2.) in
      m.(i).(j) <- d;
      m.(j).(i) <- d
    done;
    m.(i).(i) <- 0.0002
  done;
  m
