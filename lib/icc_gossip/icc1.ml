(* Protocol ICC1: the ICC0 round logic (unchanged — the paper notes the
   protocol logic "can be easily understood independent of this sub-layer")
   running over the peer-to-peer gossip sub-layer of {!Gossip}.

   The proposer no longer unicasts its block to all n-1 parties; blocks
   spread by advert/request over the peer graph, trading one-hop latency
   for a bounded per-node dissemination cost. *)

let default_fanout = 4

let transport ?(fanout = default_fanout) () : Icc_core.Runner.transport =
 fun ctx ->
  let gossip = Gossip.create ctx ~fanout in
  {
    Icc_core.Runner.tx_broadcast = (fun ~src msg -> Gossip.publish gossip ~src msg);
    tx_unicast = (fun ~src ~dst msg -> Gossip.inject gossip ~src ~dst msg);
  }

(* Run an ICC1 scenario: an ICC0 scenario whose transport is gossip.  The
   delay bound should account for multi-hop dissemination. *)
let run ?(fanout = default_fanout) (scenario : Icc_core.Runner.scenario) =
  Icc_core.Runner.run
    { scenario with Icc_core.Runner.transport = Some (transport ~fanout ()) }
