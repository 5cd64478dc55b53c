(** Simulated message-passing network between [n] parties (1-based ids),
    with pluggable delay models and an adversary-controlled release policy
    (partial synchrony, paper §1/§3.1).

    Self-delivery is immediate and free (a party's pool holds its own
    broadcasts); all other transmissions are announced on the {!Trace} bus
    at the caller's modeled wire size ([Net_send] always; [Net_hold] and
    [Net_deliver] when a detail subscriber is present). *)

type delay_model =
  | Fixed of float
  | Uniform of { rng : Rng.t; lo : float; hi : float }
  | Matrix of float array array
  | Jitter of { rng : Rng.t; base : float; jitter : float }

type 'msg t

val create :
  Engine.t ->
  n:int ->
  trace:Trace.t ->
  delay_model:delay_model ->
  ?hold_until:float ->
  ?fault:Fault.t ->
  ?adversary:Adversary.t ->
  unit ->
  'msg t
(** A network whose whole release policy is fixed here, at creation.
    Every remote transmission is interposed in one order:

    + its delay is sampled from [delay_model];
    + a Byzantine [adversary] rules the corrupt sender's copy
      ({!Adversary.on_send}): a copy it suppresses (censorship,
      straggling, network-level withholding, crash window) never reaches
      the nemesis, and a stealthy-leader delay adds to the sampled delay;
    + a [fault] nemesis ({!Fault.on_transmit}) may drop the copy,
      duplicate it, delay copies out of order, or declare the link down
      (flap or partition) until a floor;
    + the message is released at the max of [now], [hold_until]
      (adversarial asynchrony: messages sent before it are held until
      then) and the nemesis floor, and delivered at release + delay.

    Each layer draws from its own RNG stream after the delay model's, so
    adding one never shifts another.  Self-delivery is never interposed.
    Every transmission is priced {e at send time}: a message in flight or
    held is never re-priced (pinned by a regression test in
    test/test_sim.ml). *)

val set_handler : 'msg t -> (dst:int -> src:int -> 'msg -> unit) -> unit

val unicast : 'msg t -> src:int -> dst:int -> size:int -> kind:string -> 'msg -> unit
val broadcast : 'msg t -> src:int -> size:int -> kind:string -> 'msg -> unit
val delivered : 'msg t -> int

val wan_matrix : Rng.t -> n:int -> rtt_lo:float -> rtt_hi:float -> float array array
(** Symmetric one-way delay matrix sampled from RTT ~ U[[rtt_lo], [rtt_hi]]
    (the paper's observed 6–110 ms inter-datacenter range). *)
