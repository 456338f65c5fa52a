(* The BMX benchmark: one workload, one seed, one JSON result line.

   Usage: bmxbench --workload NAME --seed N --seconds S --trace 0|1
   (normally through perfbench/run.py; see perfbench/README.md).

   The benchmark drives a cluster only through the public Bmx.Cluster
   API.  Its op stream comes from its own generator, patterned on
   Driver.one_op but calling each layer directly so every call can be
   timed from outside: acquire_read/acquire_write/release (dsm),
   read/write (memory, the write barrier), add_root/remove_root_checked
   (roots), bgc (collector), drain (netsim), gc_round (quiescence).
   Checks use Bmx.Audit.

   A run measures [clusters] clusters one after another: set one up
   (the median set-up time is setup_s), Gc.compact, then run its share
   of the run's [seconds / phase_s] phases.  A phase is [chunks] windows
   of [chunk_ops] issued ops, each window closed by a BGC wave (every
   replica of every bunch) and a drain, then one quiescence episode
   (gc_round until nodes+1 empty rounds, the
   Cluster.collect_until_quiescent rule).  The work is fixed by the seed
   and [seconds], so every count is deterministic; durations come from
   the normalized [Clock].

   With --trace 1 odd phases are traced (spans around each layer call);
   the per-layer metrics come from the traced phases and
   trace.overhead_pct compares the traced and untraced phases' windows. *)

open Bmx_util
module Cluster = Bmx.Cluster
module Audit = Bmx.Audit
module Protocol = Bmx_dsm.Protocol
module Net = Bmx_netsim.Net
module Value = Bmx_memory.Value
module Collect = Bmx_gc.Collect
module Reach = Bmx_workload.Reach
module Graphgen = Bmx_workload.Graphgen

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- normalized clock ------------------------------------------------- *)

(* A shared host's speed drifts by up to ~2x over seconds, which no
   within-run median removes.  Every duration the benchmark reports is
   read from this clock instead: host time scaled by (nominal / measured)
   time of a fixed calibration kernel, re-measured every [period_ns] at
   a safe point between layer calls.  The kernel is harness code (random
   replaces in a preallocated hashtable; no allocation), so it does not
   change when the program does, and its own time is excluded from the
   clock.  It runs twice and the second, warm run is the one timed: a
   cold run would also measure how much of the cache the program had
   just evicted, and credit a program that uses more of it.
   [nominal_ns] is near the warm kernel's typical time on the 2-core
   x86-64 host the benchmark was tuned on, so normalized figures stay
   close to real ones there. *)
module Clock = struct
  let table = Hashtbl.create 8192
  let () = for k = 0 to 8191 do Hashtbl.replace table k k done

  let kernel_ns () =
    let t = now_ns () in
    let x = ref 12345 in
    for k = 1 to 10_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace table (!x land 8191) k
    done;
    now_ns () - t

  let nominal_ns = 350_000.0
  let period_ns = 50_000_000

  type state = {
    mutable factor : float;
    mutable base_real : int;
    mutable base_virt : int;
    factors : float Queue.t;
  }

  let st = { factor = 1.0; base_real = now_ns (); base_virt = 0; factors = Queue.create () }

  let now () =
    st.base_virt + int_of_float (float_of_int (now_ns () - st.base_real) *. st.factor)

  let calibrate () =
    let v = now () in
    ignore (kernel_ns ());
    let k = kernel_ns () in
    st.factor <- nominal_ns /. float_of_int k;
    Queue.add st.factor st.factors;
    st.base_real <- now_ns ();
    st.base_virt <- v

  let[@inline] tick () = if now_ns () - st.base_real >= period_ns then calibrate ()
end

(* --- workloads -------------------------------------------------------- *)

type shape = {
  name : string;
  nodes : int;  (** one bunch per node, homed there *)
  objects_per_bunch : int;
  write_prob : float;
  relink_prob : float;  (** share of writes that rewrite a pointer field *)
  root_churn_prob : float;
  replicas : int;  (** extra read replicas per object made at set-up *)
  chunk_ops : int;  (** issued ops per window; a BGC wave closes it *)
  chunks : int;  (** windows per phase; a quiescence episode closes it *)
  clusters : int;  (** clusters set up and measured one after another *)
  phase_s : float;  (** host seconds one phase takes; sizes a run *)
  warmup_ops : int;
  intended : string list;  (** layers that should carry the most traced time *)
}

let out_degree = 2
let cross_bunch_prob = 0.2

let shapes =
  [
    {
      name = "dsm-contended";
      nodes = 8;
      objects_per_bunch = 64;
      write_prob = 0.6;
      relink_prob = 0.1;
      root_churn_prob = 0.005;
      replicas = 0;
      chunk_ops = 12000;
      chunks = 1;
      clusters = 6;
      phase_s = 0.88;
      warmup_ops = 2000;
      intended = [ "dsm" ];
    };
    {
      name = "gc-large-heap";
      nodes = 12;
      objects_per_bunch = 512;
      write_prob = 0.4;
      relink_prob = 0.3;
      root_churn_prob = 0.05;
      replicas = 0;
      chunk_ops = 1200;
      chunks = 1;
      clusters = 6;
      phase_s = 0.82;
      warmup_ops = 400;
      intended = [ "collector"; "netsim"; "quiesce" ];
    };
    {
      name = "read-shared";
      nodes = 8;
      objects_per_bunch = 256;
      write_prob = 0.05;
      relink_prob = 0.3;
      root_churn_prob = 0.01;
      replicas = 3;
      chunk_ops = 8000;
      chunks = 2;
      clusters = 3;
      phase_s = 1.04;
      warmup_ops = 2000;
      intended = [ "dsm"; "collector" ];
    };
  ]

(* --- samples ---------------------------------------------------------- *)

(* Growable int buffer of nanosecond durations; percentiles are exact
   (sorted copy, nearest rank). *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let a' = Array.make (2 * s.n) 0 in
      Array.blit s.a 0 a' 0 s.n;
      s.a <- a'
    end;
    Array.unsafe_set s.a s.n x;
    s.n <- s.n + 1

  let sorted s ~off ~len =
    let a = Array.sub s.a off len in
    Array.sort (fun (x : int) y -> compare x y) a;
    a

  (* Nearest-rank [p]-th percentile of a sorted array. *)
  let rank a p =
    float_of_int a.(int_of_float (Float.round (p /. 100.0 *. float_of_int (Array.length a - 1))))

  let percentile s p = if s.n = 0 then 0.0 else rank (sorted s ~off:0 ~len:s.n) p
  let median s = percentile s 50.0

  (* Mean over consecutive blocks of [block] samples of each block's
     [p]-th percentile: a within-run estimate that a few slow seconds, or
     a median sitting between two latency modes, cannot swing. *)
  let block_percentile s ~block p =
    let blocks = s.n / block in
    if blocks = 0 then percentile s p
    else begin
      let acc = ref 0.0 in
      for b = 0 to blocks - 1 do
        acc := !acc +. rank (sorted s ~off:(b * block) ~len:block) p
      done;
      !acc /. float_of_int blocks
    end

  (* Interquartile mean: the mean of the middle half of the samples. *)
  let iq_mean s =
    if s.n = 0 then 0.0
    else begin
      let a = sorted s ~off:0 ~len:s.n in
      let lo = s.n / 4 in
      let hi = max (lo + 1) (s.n - lo) in
      let acc = ref 0 in
      for i = lo to hi - 1 do
        acc := !acc + a.(i)
      done;
      float_of_int !acc /. float_of_int (hi - lo)
    end
end

(* Median of a float list (windows' rates, rounds). *)
let median_f l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- layer spans (traced phases only) -------------------------------- *)

let tracing = ref false

type layers = {
  mutable gen_ns : int;  (** generator + Reach mirror: op span self time *)
  mutable dsm_ns : int;
  mutable memory_ns : int;
  mutable roots_ns : int;
  mutable collector_ns : int;  (** Cluster.bgc in waves *)
  mutable netsim_ns : int;  (** Cluster.drain after waves *)
  mutable quiesce_ns : int;  (** gc_round episodes *)
  mutable wall_ns : int;  (** traced windows + episodes *)
  mutable child_ns : int;  (** cluster-call time inside the current op *)
  acq_read : Samples.t;
  acq_write : Samples.t;
  release : Samples.t;
  read : Samples.t;
  write : Samples.t;
  roots : Samples.t;
  (* summed Collect.report fields of wave BGCs *)
  mutable bgc_calls : int;
  mutable live : int;
  mutable copied : int;
  mutable scanned_in_place : int;
  mutable reclaimed : int;
  mutable ref_updates : int;
  mutable tables_sent : int;
  mutable delivered : int;
}

let layers =
  {
    gen_ns = 0;
    dsm_ns = 0;
    memory_ns = 0;
    roots_ns = 0;
    collector_ns = 0;
    netsim_ns = 0;
    quiesce_ns = 0;
    wall_ns = 0;
    child_ns = 0;
    acq_read = Samples.create ();
    acq_write = Samples.create ();
    release = Samples.create ();
    read = Samples.create ();
    write = Samples.create ();
    roots = Samples.create ();
    bgc_calls = 0;
    live = 0;
    copied = 0;
    scanned_in_place = 0;
    reclaimed = 0;
    ref_updates = 0;
    tables_sent = 0;
    delivered = 0;
  }

let[@inline] span_start () = if !tracing then Clock.now () else 0

(* Close a span opened by [span_start]: the duration is a child of the
   current op and a sample of [buf]; returns it for the layer total. *)
let[@inline] span_end t0 buf =
  if !tracing then begin
    let d = Clock.now () - t0 in
    layers.child_ns <- layers.child_ns + d;
    Samples.add buf d;
    d
  end
  else 0

(* --- generator -------------------------------------------------------- *)

type gen = {
  sh : shape;
  c : Cluster.t;
  rng : Rng.t;
  n : int;
  handles : Addr.t array array;  (** node -> object -> address it knows *)
  uids : Ids.Uid.t array;
  reach : Reach.t;  (** exact mirror of the reachable set *)
  last_data : int array;  (** last data word written under a write token *)
  (* rooted objects as a fixed ring: churn pops one and pushes one *)
  root_node : int array;
  root_obj : int array;
  mutable root_head : int;
  mutable next_data : int;
  mutable cur_i : int;
  mutable cur_node : int;
  mutable op_t0 : int;
  mutable op_w0 : int;
  (* counts *)
  mutable draws : int;
  mutable rejects : int;
  mutable issued : int;
  mutable writes : int;
  mutable raised : int;
  mutable stale : int;
  mutable op_words : int;  (** minor words allocated inside op latency *)
}

(* Host latency of every issued op and of every wave BGC call. *)
let op_lat = Samples.create ()
let pause = Samples.create ()

(* An op's latency and minor words run from its first cluster call to its
   last, so they leave out the generator and the Reach mirror. *)
let[@inline] op_begin g =
  g.op_t0 <- Clock.now ();
  g.op_w0 <- int_of_float (Gc.minor_words ())

let[@inline] op_end g =
  Samples.add op_lat (Clock.now () - g.op_t0);
  g.op_words <- g.op_words + (int_of_float (Gc.minor_words ()) - g.op_w0)

let mapped g ~node addr =
  match Cluster.uid_at g.c ~node addr with
  | _ -> true
  | exception Failure _ -> false

(* A mutator can only name objects reachable from some root, through an
   address that is still mapped (Driver.legal). *)
let legal g ~node i = Reach.reachable g.reach i && mapped g ~node g.handles.(node).(i)

let max_redraws = 100_000

(* Draw an object legal at [node].  Illegal draws are redrawn and
   counted, so every op and every relinked pointer reaches the cluster:
   a relink never writes nil in place of an illegal target, which would
   cut the graph down to a small hot core within a few phases. *)
let draw_obj g ~node =
  let rec go left =
    g.draws <- g.draws + 1;
    let i = Rng.int g.rng g.n in
    if legal g ~node i then i
    else begin
      g.rejects <- g.rejects + 1;
      if left = 0 then failwith "bmxbench: no legal target" else go (left - 1)
    end
  in
  go max_redraws

let draw g =
  let node = Rng.int g.rng g.sh.nodes in
  g.cur_node <- node;
  g.cur_i <- draw_obj g ~node

let churn g ~node i =
  let c = g.c in
  let ring = Array.length g.root_obj in
  let rn = g.root_node.(g.root_head) and ri = g.root_obj.(g.root_head) in
  let removed = ref false and rooted = ref false in
  op_begin g;
  (try
     let t = span_start () in
     removed := Cluster.remove_root_checked c ~node:rn g.handles.(rn).(ri);
     layers.roots_ns <- layers.roots_ns + span_end t layers.roots;
     let t = span_start () in
     let a = Cluster.acquire_read c ~node g.handles.(node).(i) in
     layers.dsm_ns <- layers.dsm_ns + span_end t layers.acq_read;
     g.handles.(node).(i) <- a;
     let t = span_start () in
     Cluster.release c ~node a;
     layers.dsm_ns <- layers.dsm_ns + span_end t layers.release;
     let t = span_start () in
     Cluster.add_root c ~node a;
     layers.roots_ns <- layers.roots_ns + span_end t layers.roots;
     rooted := true
   with Failure _ -> g.raised <- g.raised + 1);
  op_end g;
  if !rooted then begin
    g.root_node.(g.root_head) <- node;
    g.root_obj.(g.root_head) <- i;
    g.root_head <- (g.root_head + 1) mod ring;
    Reach.add_root g.reach i
  end;
  if !removed then Reach.drop_root g.reach ri

let update g ~node i =
  let c = g.c in
  let relink = Rng.float g.rng 1.0 < g.sh.relink_prob in
  let j = if relink then draw_obj g ~node else -1 in
  let field = if relink then Rng.int g.rng out_degree else out_degree in
  let v = g.next_data in
  g.next_data <- v + 1;
  let written = ref false in
  op_begin g;
  (try
     let t = span_start () in
     let a = Cluster.acquire_write c ~node g.handles.(node).(i) in
     layers.dsm_ns <- layers.dsm_ns + span_end t layers.acq_write;
     g.handles.(node).(i) <- a;
     let value = if relink then Value.Ref g.handles.(node).(j) else Value.Data v in
     let t = span_start () in
     Cluster.write c ~node a field value;
     layers.memory_ns <- layers.memory_ns + span_end t layers.write;
     written := true;
     let t = span_start () in
     Cluster.release c ~node a;
     layers.dsm_ns <- layers.dsm_ns + span_end t layers.release
   with Failure _ -> g.raised <- g.raised + 1);
  op_end g;
  g.writes <- g.writes + 1;
  if !written then
    if relink then Reach.set_edge g.reach ~src:i ~slot:field j
    else g.last_data.(i) <- v

let lookup g ~node i =
  let c = g.c in
  let v = ref None in
  op_begin g;
  (try
     let t = span_start () in
     let a = Cluster.acquire_read c ~node g.handles.(node).(i) in
     layers.dsm_ns <- layers.dsm_ns + span_end t layers.acq_read;
     g.handles.(node).(i) <- a;
     let t = span_start () in
     v := Some (Cluster.read c ~node a out_degree);
     layers.memory_ns <- layers.memory_ns + span_end t layers.read;
     let t = span_start () in
     Cluster.release c ~node a;
     layers.dsm_ns <- layers.dsm_ns + span_end t layers.release
   with Failure _ -> g.raised <- g.raised + 1);
  op_end g;
  match !v with
  | Some (Value.Data d) when d = g.last_data.(i) -> ()
  | Some _ -> g.stale <- g.stale + 1
  | None -> ()

(* One issued op.  The op span (traced) also covers the draw and the
   mirror update, which are the generator's self time. *)
let one_op g =
  Clock.tick ();
  let t_op = span_start () in
  layers.child_ns <- 0;
  draw g;
  let i = g.cur_i and node = g.cur_node in
  let kind =
    if Rng.float g.rng 1.0 < g.sh.root_churn_prob then 0
    else if Rng.float g.rng 1.0 < g.sh.write_prob then 1
    else 2
  in
  g.issued <- g.issued + 1;
  (match kind with 0 -> churn g ~node i | 1 -> update g ~node i | _ -> lookup g ~node i);
  if !tracing then
    layers.gen_ns <- layers.gen_ns + (Clock.now () - t_op) - layers.child_ns

(* --- collection ------------------------------------------------------- *)

(* One BGC wave: every replica of every bunch, then drain (the e20
   gc_wave shape).  Each bgc call is a pause sample. *)
let wave g =
  let c = g.c in
  let proto = Cluster.proto c in
  List.iter
    (fun bunch ->
      List.iter
        (fun node ->
          Clock.tick ();
          let t = Clock.now () in
          let r = Cluster.bgc ~economical:true c ~node ~bunch in
          let d = Clock.now () - t in
          Samples.add pause d;
          if !tracing then begin
            layers.collector_ns <- layers.collector_ns + d;
            layers.bgc_calls <- layers.bgc_calls + 1;
            layers.live <- layers.live + r.Collect.r_live;
            layers.copied <- layers.copied + r.Collect.r_copied;
            layers.scanned_in_place <-
              layers.scanned_in_place + r.Collect.r_scanned_in_place;
            layers.reclaimed <- layers.reclaimed + r.Collect.r_reclaimed;
            layers.ref_updates <- layers.ref_updates + r.Collect.r_ref_updates;
            layers.tables_sent <- layers.tables_sent + r.Collect.r_tables_sent
          end)
        (Protocol.bunch_replica_nodes proto bunch))
    (Protocol.bunches proto);
  let t = Clock.now () in
  let delivered = Cluster.drain c in
  if !tracing then begin
    layers.netsim_ns <- layers.netsim_ns + (Clock.now () - t);
    layers.delivered <- layers.delivered + delivered
  end

(* One quiescence episode: gc_round until nodes+1 consecutive rounds
   reclaim nothing (Cluster.collect_until_quiescent's rule and round
   cap), counting the rounds.  Returns (host ns, rounds). *)
let episode g =
  let quiet = g.sh.nodes + 1 in
  let cap = 10 + (3 * quiet) in
  let t = Clock.now () in
  let rec go zeros rounds =
    if rounds = cap || zeros >= quiet then rounds
    else
      let () = Clock.tick () in
      let n = Cluster.gc_round g.c in
      go (if n = 0 then zeros + 1 else 0) (rounds + 1)
  in
  let rounds = go 0 0 in
  (Clock.now () - t, rounds)

(* --- set-up ----------------------------------------------------------- *)

(* Cluster [k] of a run: its object graph and initial replicas come from
   a fixed seed per [k], so every run measures the same populations; the
   op stream (warm-up and measured) comes from [seed]. *)
let setup sh ~k ~seed =
  let c = Cluster.create ~nodes:sh.nodes ~seed:(k + 1) () in
  let rng = Rng.make (1000 + k) in
  let bunches = List.init sh.nodes (fun i -> Cluster.new_bunch c ~home:i) in
  let n = sh.nodes * sh.objects_per_bunch in
  let objects =
    Graphgen.random_graph c ~rng ~node:0 ~bunches ~objects:n ~out_degree
      ~cross_bunch_prob
  in
  let uids = Array.map (fun a -> Cluster.uid_at c ~node:0 a) objects in
  let index = Hashtbl.create n in
  Array.iteri (fun i u -> Hashtbl.replace index u i) uids;
  let reach = Reach.create ~n ~arity:out_degree in
  (* Seed the mirror's edges from node 0, which built (and owns) the
     whole graph. *)
  Array.iteri
    (fun i addr ->
      Clock.tick ();
      let a = Cluster.acquire_read c ~node:0 addr in
      for f = 0 to out_degree - 1 do
        match Cluster.read c ~node:0 a f with
        | Value.Ref t when Value.is_pointer (Value.Ref t) ->
            Reach.set_edge reach ~src:i ~slot:f
              (Hashtbl.find index (Cluster.uid_at c ~node:0 t))
        | _ -> ()
      done;
      Cluster.release c ~node:0 a)
    objects;
  let handles = Array.init sh.nodes (fun _ -> Array.copy objects) in
  let nroots = (n + 3) / 4 in
  let g =
    {
      sh;
      c;
      rng = Rng.make ((seed * 7919) + k);
      n;
      handles;
      uids;
      reach;
      last_data = Array.init n (fun i -> i);
      root_node = Array.make nroots 0;
      root_obj = Array.make nroots 0;
      root_head = 0;
      next_data = n;
      cur_i = 0;
      cur_node = 0;
      op_t0 = 0;
      op_w0 = 0;
      draws = 0;
      rejects = 0;
      issued = 0;
      writes = 0;
      raised = 0;
      stale = 0;
      op_words = 0;
    }
  in
  (* Root a quarter of the population, spread over the nodes, each
     replicated at its rooting node (the Driver.setup shape). *)
  for k = 0 to nroots - 1 do
    Clock.tick ();
    let i = 4 * k in
    let node = i mod sh.nodes in
    let a = Cluster.acquire_read c ~node objects.(i) in
    Cluster.release c ~node a;
    handles.(node).(i) <- a;
    Cluster.add_root c ~node a;
    g.root_node.(k) <- node;
    g.root_obj.(k) <- i;
    Reach.add_root reach i
  done;
  (* Wider copysets: extra read replicas at random nodes. *)
  for _ = 1 to sh.replicas do
    for i = 0 to n - 1 do
      Clock.tick ();
      let node = Rng.int rng sh.nodes in
      let a = Cluster.acquire_read c ~node handles.(node).(i) in
      Cluster.release c ~node a;
      handles.(node).(i) <- a
    done
  done;
  ignore (Cluster.drain c);
  (* Warm-up batch and one collection; their samples are dropped. *)
  let lat_n = op_lat.Samples.n and pause_n = pause.Samples.n in
  for _ = 1 to sh.warmup_ops do
    one_op g
  done;
  wave g;
  ignore (episode g);
  op_lat.Samples.n <- lat_n;
  pause.Samples.n <- pause_n;
  (* count the measured phases only *)
  g.draws <- 0;
  g.rejects <- 0;
  g.issued <- 0;
  g.writes <- 0;
  g.raised <- 0;
  g.stale <- 0;
  g

(* --- counters ---------------------------------------------------------- *)

let dsm_kinds =
  List.filter (fun k -> Net.Component.of_kind k = Net.Component.Dsm) Net.all_kinds

(* Deterministic counts read at phase boundaries; the per-layer figures
   are their deltas over traced phases. *)
let probes : (string * (gen -> int)) list =
  let net g = Cluster.net g.c and st g = Cluster.stats g.c in
  let pc f _ = f (Perfcount.snapshot ()) in
  [
    ("msgs", fun g -> Net.total_messages (net g));
    ("bytes", fun g -> Net.total_bytes (net g));
    ("dsm_msgs", fun g -> List.fold_left (fun a k -> a + Net.sent (net g) k) 0 dsm_kinds);
    ("dsm_bytes", fun g -> Net.component_bytes (net g) Net.Component.Dsm);
    ("invalidations", fun g -> Stats.get (st g) "dsm.app.invalidations");
    ("scion_msgs", fun g -> Net.sent (net g) Net.Scion_message);
    ("cleaner_bytes", fun g -> Net.component_bytes (net g) Net.Component.Gc_cleaner);
    ("full_sent", fun g -> Stats.get (st g) "gc.cleaner.full_sent");
    ("delta_sent", fun g -> Stats.get (st g) "gc.cleaner.delta_sent");
    ("resyncs", fun g -> Stats.get (st g) "gc.cleaner.resyncs");
    ("gc_tokens", fun g ->
        Stats.get (st g) "dsm.gc.acquire_read" + Stats.get (st g) "dsm.gc.acquire_write");
    ("objects_touched", pc (fun s -> s.Perfcount.s_gc_objects_touched));
    ("table_entries", pc (fun s -> s.Perfcount.s_gc_table_entries));
    ("flat_words_copied", pc (fun s -> s.Perfcount.s_flat_words_copied));
    ("trace_ns", pc (fun s -> s.Perfcount.s_gc_ns_trace));
    ("copy_ns", pc (fun s -> s.Perfcount.s_gc_ns_copy));
    ("scan_ns", pc (fun s -> s.Perfcount.s_gc_ns_scan));
    ("reconcile_ns", pc (fun s -> s.Perfcount.s_gc_ns_reconcile));
    ("issued", fun g -> g.issued);
    ("writes", fun g -> g.writes);
    ("draws", fun g -> g.draws);
    ("rejects", fun g -> g.rejects);
    ("failed", fun g -> g.raised + g.stale);
    ("op_words", fun g -> g.op_words);
  ]

let read_probes g = Array.of_list (List.map (fun (_, f) -> f g) probes)

let probe_index name =
  let rec go i = function
    | [] -> invalid_arg name
    | (n, _) :: _ when n = name -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 probes

(* --- output ------------------------------------------------------------ *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* --- main --------------------------------------------------------------- *)

let run ~sh ~seed ~seconds ~trace =
  let setup_times = Samples.create () in
  let rates_untraced = ref [] and rates_traced = ref [] in
  let quiesce = Samples.create () in
  let rounds = ref [] in
  let token_check_failures = ref 0 and first_token_failure = ref None in
  let safety_failures = ref [] in
  let nprobes = List.length probes in
  let total_acc = Array.make nprobes 0 and traced_acc = Array.make nprobes 0 in
  let garbage_pct = ref 0.0 in
  let gc_tokens = ref 0 and mirror_bad = ref 0 in
  let issued = ref 0 and raised = ref 0 and stale = ref 0 in
  let draws = ref 0 and rejects = ref 0 in
  let phases =
    max sh.clusters (int_of_float (Float.round (float_of_int seconds /. sh.phase_s)))
  in
  let phase = ref 0 and measured_ns = ref 0 in
  (* One phase on cluster [g]: windows, then a quiescence episode. *)
  let run_phase g =
    incr phase;
    tracing := trace && !phase mod 2 = 1;
    let before = read_probes g in
    for _ = 1 to sh.chunks do
      let t0 = Clock.now () in
      for _ = 1 to sh.chunk_ops do
        one_op g
      done;
      wave g;
      let d = Clock.now () - t0 in
      let rate = float_of_int sh.chunk_ops /. (float_of_int d /. 1e9) in
      if !tracing then begin
        rates_traced := rate :: !rates_traced;
        layers.wall_ns <- layers.wall_ns + d
      end
      else rates_untraced := rate :: !rates_untraced;
      (* Token discipline at the wave boundary: counted, never fatal. *)
      match Audit.check_tokens g.c with
      | Ok () -> ()
      | Error msg ->
          incr token_check_failures;
          if !first_token_failure = None then first_token_failure := Some msg
    done;
    let ns, r = episode g in
    Samples.add quiesce ns;
    if !tracing then begin
      layers.quiesce_ns <- layers.quiesce_ns + ns;
      layers.wall_ns <- layers.wall_ns + ns
    end;
    (match Audit.check_safety g.c with
    | Ok () -> ()
    | Error msg -> safety_failures := Printf.sprintf "phase %d: %s" !phase msg :: !safety_failures);
    let after = read_probes g in
    let add acc = Array.iteri (fun k a -> acc.(k) <- acc.(k) + a - before.(k)) after in
    add total_acc;
    if !tracing then add traced_acc;
    rounds := float_of_int r :: !rounds;
    garbage_pct :=
      !garbage_pct
      +. (100.0 *. float_of_int (Ids.Uid_set.cardinal (Audit.garbage_retained g.c))
         /. float_of_int g.n)
  in
  (* Clusters one after another, cluster k from graph seed k: one run
     averages over several object graphs and holds one cluster at a
     time.  The median set-up time is setup_s. *)
  for k = 0 to sh.clusters - 1 do
    Gc.compact ();
    let t = Clock.now () in
    let g = setup sh ~k ~seed in
    Samples.add setup_times (Clock.now () - t);
    Gc.compact ();
    let t0 = now_ns () in
    for _ = 1 to (phases / sh.clusters) + if k < phases mod sh.clusters then 1 else 0 do
      run_phase g
    done;
    measured_ns := !measured_ns + (now_ns () - t0);
    tracing := false;
    (* End-of-cluster checks. *)
    gc_tokens := !gc_tokens + (read_probes g).(probe_index "gc_tokens");
    let truth = Audit.union_reachable g.c in
    Array.iteri
      (fun i uid -> if Reach.reachable g.reach i <> Ids.Uid_set.mem uid truth then incr mirror_bad)
      g.uids;
    issued := !issued + g.issued;
    raised := !raised + g.raised;
    stale := !stale + g.stale;
    draws := !draws + g.draws;
    rejects := !rejects + g.rejects
  done;
  let gc_tokens = !gc_tokens and mirror_bad = !mirror_bad in
  let issued = !issued and raised = !raised and stale = !stale in
  let correct = !safety_failures = [] && gc_tokens = 0 && mirror_bad = 0 in
  let failed = raised + stale in
  let get name = float_of_int total_acc.(probe_index name) in
  let pct a b = if b <= 0.0 then 0.0 else 100.0 *. a /. b in
  (* Human-readable summary; the JSON result is the last line. *)
  Printf.printf
    "workload %s seed %d: %d clusters, %d phases in %.1f s, %d ops issued (%d draws, %d rejected)\n"
    sh.name seed sh.clusters phases
    (float_of_int !measured_ns /. 1e9)
    issued !draws !rejects;
  Printf.printf "samples: op latency %d, gc pause %d, windows %d, quiescence episodes %d\n"
    op_lat.Samples.n pause.Samples.n
    (List.length !rates_untraced + List.length !rates_traced)
    quiesce.Samples.n;
  Printf.printf
    "checks: safety %s, gc_token_acquires %d, reach mirror vs audit %d mismatches\n"
    (if !safety_failures = [] then "ok" else String.concat "; " (List.rev !safety_failures))
    gc_tokens mirror_bad;
  (let a = Array.of_seq (Queue.to_seq Clock.st.Clock.factors) in
   Array.sort compare a;
   let q p = a.(int_of_float (p *. float_of_int (Array.length a - 1))) in
   if Array.length a > 0 then
     Printf.printf "host speed factor: median %.3f (p10 %.3f, p90 %.3f) over %d calibrations\n"
       (q 0.5) (q 0.1) (q 0.9) (Array.length a));
  Printf.printf "failed ops: %d raised, %d stale reads of %d issued\n" raised stale issued;
  Printf.printf "token_check_failures: %d of %d wave boundaries%s\n" !token_check_failures
    (phases * sh.chunks)
    (match !first_token_failure with Some m -> " (first: " ^ m ^ ")" | None -> "");
  let metrics =
    if not trace then begin
      let ops = get "issued" in
      [
        ("setup_s", Samples.median setup_times /. 1e9, "s");
        ("ops_per_s", median_f !rates_untraced, "1/s");
        ("op_us_p50", Samples.block_percentile op_lat ~block:2000 50.0 /. 1e3, "us");
        ("op_us_p99", Samples.block_percentile op_lat ~block:2000 99.0 /. 1e3, "us");
        ("gc_pause_ms_p50", Samples.block_percentile pause ~block:200 50.0 /. 1e6, "ms");
        ("gc_pause_ms_p95", Samples.block_percentile pause ~block:200 95.0 /. 1e6, "ms");
        ("quiesce_s", Samples.iq_mean quiesce /. 1e9, "s");
        ( "quiesce_rounds",
          List.fold_left ( +. ) 0.0 !rounds /. float_of_int (List.length !rounds),
          "rounds" );
        ("msgs_per_op", get "msgs" /. ops, "msg/op");
        ("bytes_per_op", get "bytes" /. ops, "B/op");
        ("minor_words_per_op", get "op_words" /. ops, "words/op");
        ( "peak_heap_mb",
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6,
          "MB" );
        ("ops_ok_pct", 100.0 -. pct (float_of_int failed) (float_of_int issued), "%");
      ]
    end
    else begin
      let tget name = float_of_int traced_acc.(probe_index name) in
      let ops = tget "issued" and writes = tget "writes" in
      let ms ns = float_of_int ns /. 1e6 in
      let us s p = Samples.percentile s p /. 1e3 in
      let l = layers in
      let span_total =
        l.gen_ns + l.dsm_ns + l.memory_ns + l.roots_ns + l.collector_ns + l.netsim_ns
        + l.quiesce_ns
      in
      let by_layer =
        [
          ("workload", l.gen_ns);
          ("dsm", l.dsm_ns);
          ("memory", l.memory_ns);
          ("roots", l.roots_ns);
          ("collector", l.collector_ns);
          ("netsim", l.netsim_ns);
          ("quiesce", l.quiesce_ns);
        ]
      in
      let intended =
        List.fold_left (fun a (n, ns) -> if List.mem n sh.intended then a + ns else a) 0 by_layer
      in
      let intended_pct = pct (float_of_int intended) (float_of_int span_total) in
      Printf.printf "traced time by layer:%s\n"
        (String.concat ""
           (List.map
              (fun (n, ns) -> Printf.sprintf " %s %.1f%%" n (pct (float_of_int ns) (float_of_int span_total)))
              by_layer));
      (* The intended layers dominate when together they carry more of
         the traced time than any other single layer. *)
      let others =
        List.fold_left
          (fun a (n, ns) -> if List.mem n sh.intended then a else max a ns)
          0 by_layer
      in
      Printf.printf "intended layer (%s): %.1f%% of traced time, dominates: %b\n"
        (String.concat "+" sh.intended) intended_pct (intended > others);
      let untraced = median_f !rates_untraced and traced = median_f !rates_traced in
      [
        ("workload.gen_ms", ms l.gen_ns, "ms");
        ("workload.draw_reject_pct", pct (tget "rejects") (tget "draws"), "%");
        ("dsm.acquire_read_us_p50", us l.acq_read 50.0, "us");
        ("dsm.acquire_read_us_p99", us l.acq_read 99.0, "us");
        ("dsm.acquire_write_us_p50", us l.acq_write 50.0, "us");
        ("dsm.acquire_write_us_p99", us l.acq_write 99.0, "us");
        ("dsm.release_us_p50", us l.release 50.0, "us");
        ("dsm.ms", ms l.dsm_ns, "ms");
        ("dsm.msgs_per_op", tget "dsm_msgs" /. ops, "msg/op");
        ("dsm.bytes_per_op", tget "dsm_bytes" /. ops, "B/op");
        ("dsm.invalidates_per_write", tget "invalidations" /. writes, "msg/write");
        ("memory.read_us_p50", us l.read 50.0, "us");
        ("memory.write_us_p50", us l.write 50.0, "us");
        ("memory.ms", ms l.memory_ns, "ms");
        ("memory.scion_msgs_per_write", tget "scion_msgs" /. writes, "msg/write");
        ("roots.us_p50", us l.roots 50.0, "us");
        ("roots.ms", ms l.roots_ns, "ms");
        ("collector.bgc_ms", ms l.collector_ns, "ms");
        ("collector.bgc_calls", float_of_int l.bgc_calls, "count");
        ("collector.live", float_of_int l.live, "count");
        ("collector.copied", float_of_int l.copied, "count");
        ("collector.scanned_in_place", float_of_int l.scanned_in_place, "count");
        ("collector.reclaimed", float_of_int l.reclaimed, "count");
        ("collector.ref_updates", float_of_int l.ref_updates, "count");
        ("collector.tables_sent", float_of_int l.tables_sent, "count");
        ("collector.objects_touched", tget "objects_touched", "count");
        ("collector.flat_words_copied", tget "flat_words_copied", "count");
        ("collector.trace_ms", tget "trace_ns" /. 1e6, "ms");
        ("collector.copy_ms", tget "copy_ns" /. 1e6, "ms");
        ("collector.scan_ms", tget "scan_ns" /. 1e6, "ms");
        ("collector.quiesce_ms", ms l.quiesce_ns, "ms");
        ("collector.garbage_retained_pct", !garbage_pct /. float_of_int phases, "%");
        ("cleaner.reconcile_ms", tget "reconcile_ns" /. 1e6, "ms");
        ("cleaner.table_entries", tget "table_entries", "count");
        ("cleaner.full_msgs", tget "full_sent", "count");
        ("cleaner.delta_msgs", tget "delta_sent", "count");
        ("cleaner.resyncs", tget "resyncs", "count");
        ("cleaner.bytes_per_op", tget "cleaner_bytes" /. ops, "B/op");
        ("netsim.drain_ms", ms l.netsim_ns, "ms");
        ("netsim.delivered", float_of_int l.delivered, "count");
        ( "netsim.drain_us_per_msg",
          (if l.delivered = 0 then 0.0 else float_of_int l.netsim_ns /. 1e3 /. float_of_int l.delivered),
          "us" );
        ("check.ops_failed_pct", pct (tget "failed") ops, "%");
        ("check.token_check_failures", float_of_int !token_check_failures, "count");
        ("trace.coverage_pct", pct (float_of_int span_total) (float_of_int l.wall_ns), "%");
        ("trace.overhead_pct", pct (untraced -. traced) untraced, "%");
        ("trace.intended_layer_pct", intended_pct, "%");
      ]
    end
  in
  print_result ~correct ~attempted:issued ~failed metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bmxbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun s -> s.name = !workload) shapes with
  | None ->
      Printf.eprintf "bmxbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun s -> s.name) shapes));
      exit 2
  | Some sh -> run ~sh ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
