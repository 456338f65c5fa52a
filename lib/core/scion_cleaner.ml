open Bmx_util
module Net = Bmx_netsim.Net
module Protocol = Bmx_dsm.Protocol
module Store = Bmx_memory.Store
module Registry = Bmx_memory.Registry
module Heap_obj = Bmx_memory.Heap_obj
module Directory = Bmx_dsm.Directory

type table_body =
  | Full of {
      fb_inter : Ssp.inter_stub list;
      fb_intra : Ssp.intra_stub list;
      fb_exiting : (Ids.Uid.t * Ids.Node.t) list;
    }
  | Delta of {
      db_basis : int;
      db_add_inter : Ssp.inter_key list;
      db_del_inter : Ssp.inter_key list;
      db_add_intra : Ssp.intra_key list;
      db_del_intra : Ssp.intra_key list;
      db_add_exiting : (Ids.Uid.t * Ids.Node.t) list;
      db_del_exiting : (Ids.Uid.t * Ids.Node.t) list;
    }

type table_msg = {
  tm_sender : Ids.Node.t;
  tm_bunch : Ids.Bunch.t;
  tm_body : table_body;
}

(* How many bytes a full table costs on the wire — also the
   counterfactual the [tables.full_bytes] counter accumulates for every
   send.  Deltas ship match keys (four resp. three small ids per entry,
   24 bytes) and exiting-list diffs, not full stub records and lists;
   their header is a little larger (basis id plus section lengths). *)
let full_bytes_of ~inter ~intra ~exiting =
  16
  + (40 * List.length inter)
  + (24 * List.length intra)
  + (16 * List.length exiting)

let msg_bytes m =
  match m.tm_body with
  | Full { fb_inter; fb_intra; fb_exiting } ->
      full_bytes_of ~inter:fb_inter ~intra:fb_intra ~exiting:fb_exiting
  | Delta
      {
        db_add_inter;
        db_del_inter;
        db_add_intra;
        db_del_intra;
        db_add_exiting;
        db_del_exiting;
        _;
      } ->
      24
      + (24 * (List.length db_add_inter + List.length db_del_inter))
      + (24 * (List.length db_add_intra + List.length db_del_intra))
      + (16 * (List.length db_add_exiting + List.length db_del_exiting))

let bump ?by t name = Stats.incr ?by (Gc_state.stats t) name

(* Bring the local mirror of (sender, bunch)'s stub tables up to date
   from the message body.  Fulls always install.  A delta only applies if
   the mirror exists and sits on the delta's basis; otherwise the mirror
   is resynchronised by pulling the sender's current tables — an explicit
   RPC (it costs a round trip, accounted on the wire) that only happens
   after losses, restarts or first contact on a delta stream.

   The result classifies how much reconciliation the caller owes:
   [Mirror_unchanged] — a delta with no adds or deletes in any section
   applied cleanly to a mirror already sitting on its basis, so nothing
   downstream can differ from last time; [Mirror_delta] — a non-empty
   delta applied cleanly, so only the keys it names can have changed;
   [Mirror_rewritten] — a full install or a resync replaced the mirror
   wholesale, so every local scion and entering entry must be re-checked. *)
type sync_result = Mirror_unchanged | Mirror_delta | Mirror_rewritten

let sync_mirror t ~at ~seq msg =
  let proto = Gc_state.proto t in
  let sender = msg.tm_sender and bunch = msg.tm_bunch in
  match msg.tm_body with
  | Full { fb_inter; fb_intra; fb_exiting } ->
      Gc_state.mirror_reset t ~node:at ~sender ~bunch ~basis:seq ~inter:fb_inter
        ~intra:fb_intra ~exiting:fb_exiting;
      Mirror_rewritten
  | Delta
      {
        db_basis;
        db_add_inter;
        db_del_inter;
        db_add_intra;
        db_del_intra;
        db_add_exiting;
        db_del_exiting;
      } ->
      let applied =
        Gc_state.mirror_apply t ~node:at ~sender ~bunch ~basis:db_basis ~seq
          ~add_inter:db_add_inter ~del_inter:db_del_inter
          ~add_intra:db_add_intra ~del_intra:db_del_intra
          ~add_exiting:db_add_exiting ~del_exiting:db_del_exiting
      in
      if applied then
        if
          db_add_inter = [] && db_del_inter = [] && db_add_intra = []
          && db_del_intra = [] && db_add_exiting = [] && db_del_exiting = []
        then Mirror_unchanged
        else Mirror_delta
      else begin
        (* Basis mismatch (or no mirror at all): the delta is unusable.
           Pull the sender's current tables.  The new basis is the seq of
           the sender's latest send on this stream — that is the state
           the pull observes (tables only change at a BGC, which
           broadcasts immediately), so later deltas chain correctly;
           any older in-flight message simply resyncs again. *)
        let inter = Gc_state.inter_stubs t ~node:sender ~bunch in
        let intra = Gc_state.intra_stubs t ~node:sender ~bunch in
        let exiting = Gc_state.current_exiting t ~node:sender ~bunch in
        Net.record_rpc (Protocol.net proto) ~src:at ~dst:sender
          ~kind:Net.Stub_table
          ~bytes:(full_bytes_of ~inter ~intra ~exiting)
          ~shard:(Registry.shard_of_bunch (Protocol.registry proto) bunch)
          ();
        let basis =
          match Gc_state.dest_basis t ~node:sender ~bunch ~dest:at with
          | Some (_, s) -> s
          | None -> seq
        in
        Gc_state.mirror_reset t ~node:at ~sender ~bunch ~basis ~inter ~intra
          ~exiting;
        bump t "gc.cleaner.resyncs";
        Mirror_rewritten
      end

(* Drop the inter-bunch scions held at [at] whose stub lived in
   [sender]'s copy of [bunch] and that [covered] no longer vouches for.
   Coverage is an O(1) key lookup per scion. *)
let uncover_inter t ~at ~sender ~bunch covered =
  List.iter
    (fun target_bunch ->
      if Gc_state.has_inter_scions_from t ~node:at ~bunch:target_bunch ~src:sender
      then
        let removed =
          Gc_state.remove_inter_scions t ~node:at ~bunch:target_bunch
            (fun scion ->
              Ids.Node.equal scion.Ssp.xs_src_node sender
              && Ids.Bunch.equal scion.Ssp.xs_src_bunch bunch
              && not (covered scion))
        in
        if removed > 0 then bump t ~by:removed "gc.cleaner.inter_scions_removed")
    (Gc_state.bunches_with_tables t ~node:at)

(* Intra-bunch scions for [bunch] whose owner side is [sender]: keep only
   those [covered] still names. *)
let uncover_intra t ~at ~sender ~bunch covered =
  if Gc_state.has_intra_scions_from t ~node:at ~bunch ~src:sender then begin
    let removed =
      Gc_state.remove_intra_scions t ~node:at ~bunch (fun scion ->
          Ids.Node.equal scion.Ssp.xn_owner_side sender && not (covered scion))
    in
    if removed > 0 then bump t ~by:removed "gc.cleaner.intra_scions_removed"
  end

let addressed_to at exiting =
  List.filter_map
    (fun (uid, target) -> if Ids.Node.equal target at then Some uid else None)
    exiting

(* The §6.1 cleaner step for one table from [sender] about [bunch],
   restricted to a scope: whether to re-check inter and intra scion
   coverage, which entering uids (from [sender]) to retire if nothing
   protects them any more, which uids the sender's exiting list claims
   for this node, and which mirrored inter stub keys to re-assert.  A
   full install or a resync passes everything; a cleanly applied delta
   passes only the keys it names.  Duplicates in [retire] are harmless:
   the first visit settles the entry and later visits see the same
   answer. *)
let reconcile t ~at ~seq ~sender ~bunch ~uncover_inter:do_inter
    ~uncover_intra:do_intra ~retire ~claim ~reassert =
  let proto = Gc_state.proto t in
  let dir = Protocol.directory proto at in
  let store = Protocol.store proto at in
  if do_inter then
    uncover_inter t ~at ~sender ~bunch
      (Gc_state.mirror_covers_inter t ~node:at ~sender ~bunch);
  if do_intra then
    uncover_intra t ~at ~sender ~bunch
      (Gc_state.mirror_covers_intra t ~node:at ~sender ~bunch ~holder:at);
  (* Entering ownerPtrs: retire the entries the sender's (mirrored,
     complete) exiting list no longer claims. *)
  Perfcount.(
    counters.gc_table_entries <- counters.gc_table_entries + List.length retire);
  List.iter
    (fun uid ->
      if
        Directory.is_entering_from dir ~uid ~from:sender
        (* the object is of this bunch *)
        && (match Store.addr_of_uid store uid with
           | Some a -> (
               match Store.resolve store a with
               | Some (_, obj) -> Ids.Bunch.equal obj.Heap_obj.bunch bunch
               | None -> false)
           | None -> false)
        && (not (Gc_state.mirror_has_exiting t ~node:at ~sender ~bunch (uid, at)))
        (* not registered after this table was sent *)
        && Directory.entering_registration_seq dir ~uid ~from:sender < seq
        (* Keep-alive across owner crashes: a checkpoint-restored
           entering entry stands in for a scion that died with this
           node.  The sender's exiting list never named such an object —
           its claim rides in the inter-bunch stub tables — so consult
           the stub mirrors before retiring the entry. *)
        && not (Gc_state.mirror_claims_target t ~node:at ~sender uid)
      then begin
        Directory.remove_entering dir ~uid ~from:sender;
        bump t "gc.cleaner.entering_removed"
      end)
    retire;
  List.iter (fun uid -> Directory.add_entering dir ~seq ~uid ~from:sender) claim;
  (* The dual of the §6.1 deletion test, needed only after a crash: a
     mirrored stub whose matching scion no longer exists here (it was
     volatile state of a previous incarnation) leaves its target owned
     here with no root.  Re-assert protection as a conservative entering
     entry; it is retired through the normal reconciliation above once
     the claimant drops the stub.  Doing this on every stub-table arrival
     makes the repair independent of the order the sender's per-bunch
     tables land in. *)
  Perfcount.(
    counters.gc_table_entries <- counters.gc_table_entries + List.length reassert);
  List.iter
    (fun ((_, _, _, target_uid) as key) ->
      match Directory.find dir target_uid with
      | Some r
        when r.Directory.is_owner
             && not (Directory.is_entering_from dir ~uid:target_uid ~from:sender)
        ->
          (* Scion presence is a by-target-uid index lookup, never a scan
             of the bunch's whole scion table. *)
          let scion_here =
            match Store.addr_of_uid store target_uid with
            | None -> false
            | Some a -> (
                match Store.resolve store a with
                | None -> false
                | Some (_, tobj) ->
                    List.exists
                      (fun s -> Ssp.inter_scion_key s = key)
                      (Gc_state.inter_scions_for_uid t ~node:at
                         ~bunch:tobj.Heap_obj.bunch ~uid:target_uid))
          in
          if not scion_here then begin
            Directory.add_entering dir ~seq ~uid:target_uid ~from:sender;
            bump t "gc.cleaner.entering_reasserted"
          end
      | Some _ | None -> ())
    reassert;
  Gc_state.sample_ssp_gauges t ~node:at

let receive_untimed t ~at ~seq msg =
  let net = Protocol.net (Gc_state.proto t) in
  let sender = msg.tm_sender and bunch = msg.tm_bunch in
  let fresh =
    match Gc_state.last_table_seq t ~node:at ~sender ~bunch with
    | Some last -> seq > last
    | None -> true
  in
  if Net.is_down net sender then
    (* Quarantine, don't clean: a table attributed to a crashed node
       reflects state that died with it.  Acting on it could drop scions
       (and thus objects) that the recovered node still needs; the next
       table the node sends after restart supersedes everything. *)
    bump t "gc.cleaner.quarantined_dead_sender"
  else if not (Net.reachable net sender at) then
    (* Partition quarantine: the sender is alive but cut off (e.g. an
       asymmetric cut let the table through while the return path is
       dark).  Processing it could require a resynchronising pull RPC we
       cannot make, and any scion it retires could not be re-created by
       a cross-cut Scion_message until heal — so cross-partition tables
       wait.  Quarantine is free: the sender keeps rebroadcasting (its
       recorded destination list never forgets an unreached peer), and
       the post-heal table supersedes this one. *)
    bump t "gc.cleaner.quarantined_unreachable"
  else if not fresh then bump t "gc.cleaner.stale_ignored"
  else begin
    Gc_state.record_table_seq t ~node:at ~sender ~bunch ~seq;
    bump t "gc.cleaner.processed";
    (let evlog = Protocol.evlog (Gc_state.proto t) in
     if Trace_event.enabled evlog then
       Trace_event.record evlog
         (Trace_event.Tables_processed { at; sender; bunch; seq }));
    match (sync_mirror t ~at ~seq msg, msg.tm_body) with
    | Mirror_unchanged, _ ->
        (* Quiet-stream fast path: an empty delta on a matching basis left
           the mirror bit-identical, so every check would reproduce its
           previous answer — coverage can only shrink when the sender's
           tables shrink, the exiting list is unchanged so the entering
           reconciliation is a fixpoint, and the conservative re-assert
           sweep saw this exact mirror last time.  (Local state that
           could invalidate that reasoning — a crash wiping scions or
           mirrors — also wipes the delta basis, which forces the resync
           path, never this one.)  Skipping it makes a quiescent round's
           table traffic O(messages), not O(messages x entering set). *)
        bump t "gc.cleaner.noop_tables"
    | Mirror_delta, Delta d ->
        (* Churn-proportional scope: the delta applied cleanly, so only
           the keys it names can have changed anything local.  Deletions
           are the only way coverage shrinks, so they drive scion removal
           and entering retirement — the exiting flips addressed here plus
           the targets of deleted inter stubs (a stub claim was the
           keep-alive for checkpoint-restored entries); additions drive
           entering claims and the conservative re-assert.  The one check
           this scope defers is the ageing of [registered_after_send]
           protection (an entry kept only because it was registered after
           an earlier send): the periodic full table (every [full_period]
           rounds) re-checks the whole entering set and retires it — a
           bounded conservative delay, never an unsafe deletion. *)
        reconcile t ~at ~seq ~sender ~bunch
          ~uncover_inter:(d.db_del_inter <> [])
          ~uncover_intra:(d.db_del_intra <> [])
          ~retire:
            (addressed_to at d.db_del_exiting
            @ List.map (fun (_, _, _, target_uid) -> target_uid) d.db_del_inter)
          ~claim:(addressed_to at d.db_add_exiting)
          ~reassert:d.db_add_inter
    | Mirror_rewritten, _ | Mirror_delta, Full _ ->
        (* The mirror was replaced wholesale: re-check every scion from
           the sender, its whole entering set, the complete exiting list
           and every mirrored inter stub. *)
        let dir = Protocol.directory (Gc_state.proto t) at in
        reconcile t ~at ~seq ~sender ~bunch ~uncover_inter:true
          ~uncover_intra:true
          ~retire:(Directory.entering_uids_from dir ~from:sender)
          ~claim:
            (addressed_to at (Gc_state.mirror_exiting t ~node:at ~sender ~bunch))
          ~reassert:(Gc_state.mirror_inter_keys t ~node:at ~sender ~bunch)
  end

(* Cleaner merges run at message delivery, possibly long after the
   emitting collection; the timer here attributes that work to the
   reconcile phase wherever it lands. *)
let receive t ~at ~seq msg =
  let t0 = Sys.time () in
  receive_untimed t ~at ~seq msg;
  let ns = int_of_float ((Sys.time () -. t0) *. 1e9) in
  Perfcount.counters.Perfcount.gc_ns_reconcile <-
    Perfcount.counters.Perfcount.gc_ns_reconcile + ns

let destinations t ~node ~bunch ~old_inter ~new_inter ~old_intra ~new_intra
    ~exiting =
  let proto = Gc_state.proto t in
  let open Ids in
  let add_inter acc (s : Ssp.inter_stub) = Node_set.add s.Ssp.is_scion_at acc in
  let add_intra acc (s : Ssp.intra_stub) = Node_set.add s.Ssp.ns_holder acc in
  let add_owner acc (_, n) = Node_set.add n acc in
  let dests =
    Node_set.of_list (Protocol.bunch_replica_nodes proto bunch)
    |> fun acc ->
    List.fold_left add_inter acc old_inter |> fun acc ->
    List.fold_left add_inter acc new_inter |> fun acc ->
    List.fold_left add_intra acc old_intra |> fun acc ->
    List.fold_left add_intra acc new_intra |> fun acc ->
    List.fold_left add_owner acc exiting |> fun acc ->
    List.fold_left add_owner acc (Gc_state.last_exiting t ~node ~bunch)
  in
  Node_set.elements (Node_set.remove node dests)

(* A full table goes out at least every [full_period] rounds even on a
   healthy delta stream, bounding how long a silently diverged mirror
   (e.g. a duplicated-then-reordered delta) can last.  The period sets
   the steady-state floor of the delta encoding: roughly 1/full_period
   of a quiet stream's bytes are periodic refresh. *)
let full_period = 64

let broadcast t ~node ~bunch ~old_inter ~old_intra ~exiting =
  let proto = Gc_state.proto t in
  let net = Protocol.net proto in
  (* Table exchanges are per-bunch, and a bunch's segments all come from
     one registry shard — route and account them against it. *)
  let shard = Registry.shard_of_bunch (Protocol.registry proto) bunch in
  let new_inter = Gc_state.inter_stubs t ~node ~bunch in
  let new_intra = Gc_state.intra_stubs t ~node ~bunch in
  let dests =
    destinations t ~node ~bunch ~old_inter ~new_inter ~old_intra ~new_intra
      ~exiting
  in
  (* A resend must also reach last round's destinations: after a loss the
     replaced tables no longer name the peers whose scions must go. *)
  let dests =
    List.sort_uniq Ids.Node.compare
      (dests @ Gc_state.last_broadcast_dests t ~node ~bunch)
    |> List.filter (fun n -> not (Ids.Node.equal n node))
  in
  Gc_state.record_broadcast_dests t ~node ~bunch dests;
  (* Peers that are down or cut off right now are deferred, not
     forgotten: they stay in the recorded destination list, so the next
     round's rebroadcast reaches them once they return or the partition
     heals — the same §6.1 loss-repair path that covers dropped tables.
     (A deferred peer misses rounds, so its next table is a full one and
     its mirror resynchronises via the existing basis-mismatch path.)
     Never block on a dead or partitioned peer. *)
  let live_dests = List.filter (fun d -> Net.reachable net node d) dests in
  let deferred = List.length dests - List.length live_dests in
  if deferred > 0 then bump t ~by:deferred "gc.cleaner.deferred_unreachable";
  Gc_state.note_exiting t ~node ~bunch exiting;
  let full_body =
    Full { fb_inter = new_inter; fb_intra = new_intra; fb_exiting = exiting }
  in
  let full_sz = full_bytes_of ~inter:new_inter ~intra:new_intra ~exiting in
  let delta = Gc_state.stub_delta t ~node ~bunch in
  let delta_body_for basis =
    Delta
      {
        db_basis = basis;
        db_add_inter = delta.Gc_state.sd_add_inter;
        db_del_inter = delta.Gc_state.sd_del_inter;
        db_add_intra = delta.Gc_state.sd_add_intra;
        db_del_intra = delta.Gc_state.sd_del_intra;
        db_add_exiting = delta.Gc_state.sd_add_exiting;
        db_del_exiting = delta.Gc_state.sd_del_exiting;
      }
  in
  let delta_sz =
    msg_bytes { tm_sender = node; tm_bunch = bunch; tm_body = delta_body_for 0 }
  in
  (* The journal rebases after every round, so a delta covers exactly
     one round of churn.  Still send fulls periodically (bounding mirror
     drift) and whenever the round's churn costs as much as the table
     itself — common for small tables, where a full is the cheaper and
     sturdier encoding anyway. *)
  let round = Gc_state.broadcast_round t ~node ~bunch in
  let full_round =
    (round + 1) mod full_period = 0 || 2 * delta_sz >= full_sz
  in
  let send_to dst =
    let body =
      if full_round then full_body
      else
        match Gc_state.dest_basis t ~node ~bunch ~dest:dst with
        | Some (r, basis) when r = round - 1 -> delta_body_for basis
        | Some _ | None ->
            (* First contact, or the peer missed a round (down, or
               dropped out of the destination set): the journal no
               longer covers the gap, so restart the stream. *)
            full_body
    in
    let msg = { tm_sender = node; tm_bunch = bunch; tm_body = body } in
    let wire = msg_bytes msg in
    bump t ~by:full_sz "tables.full_bytes";
    bump t ~by:wire "tables.delta_bytes";
    (match body with
    | Full _ -> bump t "gc.cleaner.full_sent"
    | Delta _ -> bump t "gc.cleaner.delta_sent");
    Net.send net ~src:node ~dst ~kind:Net.Stub_table ~bytes:wire ~shard
      (fun seq -> receive t ~at:dst ~seq msg);
    (* The transport seq just stamped on this pair is the basis the next
       round's delta to this peer will name; the receiver's mirror
       records the same number when it processes the message. *)
    Gc_state.record_dest_basis t ~node ~bunch ~dest:dst ~round
      ~basis:(Net.current_seq net ~src:node ~dst)
  in
  List.iter send_to live_dests;
  Gc_state.rebase_stub_journal t ~node ~bunch;
  (* The scion cleaner is a per-node service operating on all local
     bunches (§6.1): the node's own scions are checked directly against
     the stub tables it has just regenerated — no message and no mirror.
     Only the scion side applies: entering ownerPtrs never originate at
     the owner itself. *)
  uncover_inter t ~at:node ~sender:node ~bunch
    (Gc_state.stubs_cover_inter t ~node ~bunch);
  uncover_intra t ~at:node ~sender:node ~bunch
    (Gc_state.stubs_cover_intra t ~node ~bunch);
  Gc_state.sample_ssp_gauges t ~node;
  List.length live_dests
