(* Discrete-event simulation engine: a clock plus an ordered queue of
   thunks.  Handlers run strictly in (time, insertion) order; a handler may
   schedule further events at or after the current time.

   The queue is one binary min-heap of *nodes* keyed by (time, seq), held
   in parallel arrays so that pushing and popping allocate nothing: an
   unboxed float array of times, an int array of seqs and an int array of
   slots.  A node's events live in its slot, which stays put while the node
   moves through the heap, so sifting writes no pointers: the slot holds
   the node's next event inline and, behind it, a FIFO run of events
   appended at the same time.  An event scheduled at the same time as the
   most recently pushed node joins that node's run instead of becoming a
   node of its own, so a fixed-delay broadcast burst of n-1 same-time
   deliveries costs one heap node, and a WAN delivery at its own timestamp
   costs one push and one pop.

   Ordering argument.  Seqs are assigned globally at insertion.  Only the
   most recent node takes appends, so a node's events carry consecutive
   seqs, and a node is closed for good once another node is pushed after
   it.  Nodes that share a time therefore hold disjoint seq ranges, each
   wholly below the next one's.  The heap orders nodes by (time, seq of
   the node's next event); dispatching the root's next event and moving up
   the following one of its run keeps the root minimal.  The dispatch
   order is thus (time, seq), exactly as with one heap entry per event.

   Lanes.  A lane is a FIFO of events that all run one closure, for a
   source of events due in the order they are scheduled (a network link of
   constant delay).  Its events are cells of one pool shared by every lane,
   linked head to tail, so lane memory follows the events in flight, not
   each lane's longest backlog.  A non-empty lane is one heap node keyed
   by its head; its slot holds the lane's closure as the next event.
   Dispatching its event frees the head cell, moves the next cell's (time,
   seq) up and sifts the node down, and a drained lane leaves the heap.  A
   lane schedule takes the next seq and closes the open run, so every run
   still holds consecutive seqs, and no event of a lane falls inside a
   run's seq range.  A lane's times are non-decreasing and its seqs
   increasing, so its node's key is its least event, and the argument
   above holds as written. *)

(* The rest of a node's events after its next one, in seq order. *)
type run = {
  mutable r_fns : (unit -> unit) array;
  mutable r_len : int; (* events appended *)
  mutable r_next : int; (* next one to move up *)
}

(* A lane's events are the pool cells from [l_head] to [l_tail] along
   [cell_next]; [l_head] is -1 when the lane is empty. *)
type lane = {
  fire : unit -> unit;
  mutable l_head : int;
  mutable l_tail : int;
}

(* What a slot holds behind its next event. *)
type rest =
  | Nothing
  | Run of run
  | Lane of lane

let no_op () = ()

(* All-float, so stored flat: setting a field allocates nothing. *)
type clock = { mutable now : float; mutable last_time : float }

type t = {
  clock : clock;
  (* The heap of nodes, ordered by (time, seq of the node's next event). *)
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
      (* [slots.(i)] holds node i's events for i < size; the rest of the
         array lists the free slots, so it is always a permutation *)
  mutable size : int;
  (* Per slot, unmoved while its node travels through the heap. *)
  mutable fns : (unit -> unit) array; (* the node's next event *)
  mutable rests : rest array;
      (* [Nothing] is an immediate: unlike a young sentinel block, it lets
         [Array.make] fill a major-heap array without a minor GC *)
  mutable last : int; (* slot of the node taking appends, or -1 *)
  (* The lane cell pool, grown on the first lane schedule. *)
  mutable cell_times : float array;
  mutable cell_seqs : int array;
  mutable cell_next : int array; (* next cell of its lane or free list *)
  mutable free_cell : int; (* -1 when the pool is full *)
  mutable fired_cell : int; (* the cell of the last dispatched lane event *)
  mutable seq : int;
  mutable pending : int;
  mutable processed : int;
  mutable observer : (time:float -> seq:int -> unit) option;
      (* instrumentation hook, called before each dispatched handler *)
}

let create () =
  {
    clock = { now = 0.; last_time = 0. };
    times = Array.make 64 0.;
    seqs = Array.make 64 0;
    slots = Array.init 64 Fun.id;
    size = 0;
    fns = Array.make 64 no_op;
    rests = Array.make 64 Nothing;
    last = -1;
    cell_times = [||];
    cell_seqs = [||];
    cell_next = [||];
    free_cell = -1;
    fired_cell = -1;
    seq = 0;
    processed = 0;
    pending = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f

let now t = t.clock.now
let pending t = t.pending
let processed t = t.processed

(* Node [i] goes before the node keyed (time, seq). *)
let[@inline] before t i time seq =
  let ti = t.times.(i) in
  ti < time || (Float.equal ti time && t.seqs.(i) < seq)

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.slots.(dst) <- t.slots.(src)

let grow t =
  let cap = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- Array.init (2 * cap) (fun i -> if i < cap then t.slots.(i) else i);
  t.fns <- extend t.fns no_op;
  t.rests <- extend t.rests Nothing

(* A new node in a free slot; it becomes the one taking appends. *)
let push t time seq fn =
  if t.size = Array.length t.times then grow t;
  let slot = t.slots.(t.size) in
  t.fns.(slot) <- fn;
  let i = ref t.size in
  t.size <- t.size + 1;
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    not (before t p time seq)
  do
    let p = (!i - 1) / 2 in
    move t ~src:p ~dst:!i;
    i := p
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- slot;
  t.last <- slot;
  t.clock.last_time <- time

(* Sift the root down among the first [t.size] nodes. *)
let[@inline] sift_down t =
  let n = t.size in
  let time = t.times.(0) and seq = t.seqs.(0) and slot = t.slots.(0) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c =
        if l + 1 < n && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1
        else l
      in
      if before t c time seq then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- slot

(* Remove the root, whose events have all been taken, and free its slot. *)
let pop t =
  let slot = t.slots.(0) in
  t.fns.(slot) <- no_op;
  t.rests.(slot) <- Nothing;
  if t.last = slot then t.last <- -1;
  let n = t.size - 1 in
  t.size <- n;
  move t ~src:n ~dst:0;
  sift_down t;
  t.slots.(n) <- slot

let append t fn =
  let r =
    match t.rests.(t.last) with
    | Run r -> r
    | Nothing | Lane _ ->
        let r = { r_fns = Array.make 8 no_op; r_len = 0; r_next = 0 } in
        t.rests.(t.last) <- Run r;
        r
  in
  let cap = Array.length r.r_fns in
  if r.r_len = cap then begin
    let a = Array.make (2 * cap) no_op in
    Array.blit r.r_fns 0 a 0 cap;
    r.r_fns <- a
  end;
  r.r_fns.(r.r_len) <- fn;
  r.r_len <- r.r_len + 1

let[@inline] check_time t fn time =
  (* a nan time compares false both ways and would corrupt the heap *)
  if Float.is_nan time then invalid_arg (fn ^ ": time is nan");
  if time < t.clock.now then
    invalid_arg
      (Printf.sprintf "%s: time %.6f is in the past (now %.6f)" fn time
         t.clock.now)

let schedule_at t ~time action =
  check_time t "Engine.schedule_at" time;
  if t.last >= 0 && Float.equal t.clock.last_time time then append t action
  else push t time t.seq action;
  t.seq <- t.seq + 1;
  t.pending <- t.pending + 1

let schedule t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock.now +. delay) action

let lane _t fire = { fire; l_head = -1; l_tail = -1 }

let lane_tail t l =
  if l.l_head < 0 then neg_infinity else t.cell_times.(l.l_tail)

(* Double the pool and put the new cells on the free list. *)
let grow_cells t =
  let cap = Array.length t.cell_times in
  let cap' = max 64 (2 * cap) in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.cell_times <- extend t.cell_times 0.;
  t.cell_seqs <- extend t.cell_seqs 0;
  t.cell_next <- Array.init cap' (fun i ->
      if i < cap then t.cell_next.(i) else if i + 1 < cap' then i + 1 else -1);
  t.free_cell <- cap

let schedule_lane t l ~time =
  check_time t "Engine.schedule_lane" time;
  if time < lane_tail t l then
    invalid_arg "Engine.schedule_lane: time before the lane's tail";
  if t.free_cell < 0 then grow_cells t;
  let c = t.free_cell in
  t.free_cell <- t.cell_next.(c);
  t.cell_times.(c) <- time;
  t.cell_seqs.(c) <- t.seq;
  t.cell_next.(c) <- -1;
  if l.l_head < 0 then begin
    l.l_head <- c;
    push t time t.seq l.fire;
    t.rests.(t.last) <- Lane l
  end
  else t.cell_next.(l.l_tail) <- c;
  l.l_tail <- c;
  (* close the open run: its events keep consecutive seqs *)
  t.last <- -1;
  t.seq <- t.seq + 1;
  t.pending <- t.pending + 1;
  c

let fired_cell t = t.fired_cell

exception Stopped

let stop _t = raise Stopped

(* Take the root's next event: move the following event of its run up,
   re-key a lane's node by its next cell, or remove the node once it is
   drained. *)
let dispatch t =
  let time = t.times.(0) and seq = t.seqs.(0) and slot = t.slots.(0) in
  let fn = t.fns.(slot) in
  (match t.rests.(slot) with
  | Run r when r.r_next < r.r_len ->
      t.fns.(slot) <- r.r_fns.(r.r_next);
      r.r_fns.(r.r_next) <- no_op;
      r.r_next <- r.r_next + 1;
      t.seqs.(0) <- seq + 1
  | Lane l ->
      let c = l.l_head in
      let next = t.cell_next.(c) in
      t.cell_next.(c) <- t.free_cell;
      t.free_cell <- c;
      t.fired_cell <- c;
      l.l_head <- next;
      if next < 0 then pop t
      else begin
        t.times.(0) <- t.cell_times.(next);
        t.seqs.(0) <- t.cell_seqs.(next);
        sift_down t
      end
  | Run _ | Nothing -> pop t);
  t.clock.now <- time;
  t.processed <- t.processed + 1;
  t.pending <- t.pending - 1;
  (match t.observer with Some f -> f ~time ~seq | None -> ());
  Icc_obs.Profile.span "engine.dispatch" fn

let run ?(until = infinity) ?(max_events = max_int) t =
  try
    let continue = ref true in
    while !continue do
      if t.processed >= max_events || t.size = 0 then continue := false
      else if t.times.(0) > until then begin
        t.clock.now <- until;
        continue := false
      end
      else dispatch t
    done
  with Stopped -> ()
