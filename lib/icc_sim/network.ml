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

(* The payloads of the unicasts on the links' engine lanes, indexed by
   the event's engine cell and shared by every link of the network. *)
type 'msg cells = {
  fill : 'msg; (* fills the free cells, so none keeps a delivered message *)
  mutable msgs : 'msg array;
  mutable sizes : int array;
  mutable kinds : string array;
}

type 'msg link = { lane : Engine.lane; cells : 'msg cells }

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
  mutable links : 'msg link option array array;
      (* [src].([dst]) under [Matrix], made on the link's first unicast *)
  mutable cells : 'msg cells option; (* made with the first link *)
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
    links = [||];
    cells = None;
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

let deliver t ~src ~dst ~size ~kind msg =
  t.delivered <- t.delivered + 1;
  if Trace.detailed t.trace then
    Trace.emit t.trace ~time:(Engine.now t.engine)
      (Trace.Net_deliver { src; dst; kind; size });
  t.handler ~dst ~src msg

(* A link lane's [fire]: deliver the payload of the dispatched cell. *)
let deliver_cell t cs ~src ~dst =
  let c = Engine.fired_cell t.engine in
  let msg = cs.msgs.(c) in
  cs.msgs.(c) <- cs.fill;
  deliver t ~src ~dst ~size:cs.sizes.(c) ~kind:cs.kinds.(c) msg

let enqueue t { lane; cells = cs } ~time ~size ~kind msg =
  let c = Engine.schedule_lane t.engine lane ~time in
  let cap = Array.length cs.msgs in
  if c >= cap then begin
    let grow a fill =
      let b = Array.make (max (c + 1) (2 * cap)) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    cs.msgs <- grow cs.msgs cs.fill;
    cs.sizes <- grow cs.sizes 0;
    cs.kinds <- grow cs.kinds ""
  end;
  cs.msgs.(c) <- msg;
  cs.sizes.(c) <- size;
  cs.kinds.(c) <- kind

(* Schedule one remote transmission.  The delay is sampled before anything
   else so the RNG stream is independent of the hold, the fault state and
   tracing; the nemesis (when present) is consulted exactly once per
   transmission, also independent of the hold.

   A unicast's [link] is its lane under the [Matrix] model, where a link's
   delay is constant: a single delivery due no earlier than the link's
   last queued one keeps link order and is one engine cell on the link's
   lane, not a closure and a heap node of its own.  Duplicates, and reorders,
   delays or holds that would overtake the link's tail, are events of
   their own, as is every copy of a broadcast and every delivery under
   the other models: a fixed-delay broadcast's n-1 copies share one time
   and already cost one heap node (the engine's same-time run), and lanes
   for broadcasts would keep O(n^2) link state at large n. *)
let transmit_now t ~link ~src ~dst ~size ~kind msg =
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
  match (deliveries, link) with
  | [ extra ], Some l
    when release +. d +. extra >= Engine.lane_tail t.engine l.lane ->
      enqueue t l ~time:(release +. d +. extra) ~size ~kind msg
  | [ extra ], _ ->
      (* single-delivery fast path: one closure, no list walk *)
      Engine.schedule_at t.engine ~time:(release +. d +. extra) (fun () ->
          deliver t ~src ~dst ~size ~kind msg)
  | deliveries, _ ->
      List.iter
        (fun extra ->
          Engine.schedule_at t.engine ~time:(release +. d +. extra) (fun () ->
              deliver t ~src ~dst ~size ~kind msg))
        deliveries

(* The span's closure is made only when profiling is on: made on every
   call, it was most of what a transmission allocates. *)
let transmit t ~link ~src ~dst ~size ~kind msg =
  if Icc_obs.Profile.enabled () then
    Icc_obs.Profile.span "net.transmit" (fun () ->
        transmit_now t ~link ~src ~dst ~size ~kind msg)
  else transmit_now t ~link ~src ~dst ~size ~kind msg

(* The lane of the link [src] -> [dst] under [Matrix], made on its first
   unicast, so a run allocates nothing for links before it uses them. *)
let link t ~src ~dst msg =
  match t.delay_model with
  | Matrix _ ->
      if Array.length t.links = 0 then t.links <- Array.make (t.n + 1) [||];
      if Array.length t.links.(src) = 0 then
        t.links.(src) <- Array.make (t.n + 1) None;
      (match t.links.(src).(dst) with
      | None ->
          let cells =
            match t.cells with
            | Some cs -> cs
            | None ->
                let cs =
                  { fill = msg; msgs = [||]; sizes = [||]; kinds = [||] }
                in
                t.cells <- Some cs;
                cs
          in
          let lane =
            Engine.lane t.engine (fun () -> deliver_cell t cells ~src ~dst)
          in
          t.links.(src).(dst) <- Some { lane; cells }
      | Some _ -> ());
      t.links.(src).(dst)
  | Fixed _ | Uniform _ | Jitter _ -> None

let unicast t ~src ~dst ~size ~kind msg =
  if dst < 1 || dst > t.n then invalid_arg "Network.unicast: bad destination";
  if dst = src then deliver_self t ~src msg
  else begin
    Trace.emit t.trace ~time:(Engine.now t.engine)
      (Trace.Net_send { src; dst; kind; size; copies = 1 });
    transmit t ~link:(link t ~src ~dst msg) ~src ~dst ~size ~kind msg
  end

let broadcast t ~src ~size ~kind msg =
  (* Same message to all parties; self copy is free and immediate. *)
  Trace.emit t.trace ~time:(Engine.now t.engine)
    (Trace.Net_send { src; dst = 0; kind; size; copies = t.n - 1 });
  for dst = 1 to t.n do
    if dst = src then deliver_self t ~src msg
    else transmit t ~link:None ~src ~dst ~size ~kind msg
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
