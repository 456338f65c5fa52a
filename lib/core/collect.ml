open Bmx_util
module Protocol = Bmx_dsm.Protocol
module Directory = Bmx_dsm.Directory
module Store = Bmx_memory.Store
module Segment = Bmx_memory.Segment
module Registry = Bmx_memory.Registry
module Heap_obj = Bmx_memory.Heap_obj
module Value = Bmx_memory.Value

type report = {
  r_node : Ids.Node.t;
  r_bunches : Ids.Bunch.t list;
  r_roots : int;
  r_live : int;
  r_copied : int;
  r_scanned_in_place : int;
  r_reclaimed : int;
  r_ref_updates : int;
  r_new_inter_stubs : int;
  r_new_intra_stubs : int;
  r_exiting : int;
  r_tables_sent : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<h>gc@%a[%a]: roots=%d live=%d copied=%d scanned=%d reclaimed=%d \
     updates=%d stubs=%d+%d exiting=%d msgs=%d@]"
    Ids.Node.pp r.r_node
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Ids.Bunch.pp)
    r.r_bunches r.r_roots r.r_live r.r_copied r.r_scanned_in_place r.r_reclaimed
    r.r_ref_updates r.r_new_inter_stubs r.r_new_intra_stubs r.r_exiting
    r.r_tables_sent

(* An inter-bunch (or cross-replica) edge discovered while scanning:
   [src_uid] (in [src_bunch]) references [target_uid]. *)
type edge = {
  e_src_bunch : Ids.Bunch.t;
  e_src_uid : Ids.Uid.t;
  e_target_uid : Ids.Uid.t;
  e_target_owner_hint : (Ids.Bunch.t * Ids.Node.t) option;
      (* target's bunch and owner, for conservative exiting entries when
         the target has no local copy *)
}

let bump ?by t name = Stats.incr ?by (Gc_state.stats t) name

(* ------------------------------------------------------------------ *)
(* Tracing.                                                            *)

(* Compute the set of live objects local to [node] within [bunches],
   starting from the given root addresses.  Scanning follows pointer
   fields of the local — possibly inconsistent — copies only; edges
   leaving the collected set are returned for stub-table reconstruction.
   [extra_root_uids] are roots known by identity only (scions protecting
   objects with no local copy): they produce conservative edges. *)
let trace t ~node ~in_set ~root_addrs ~root_uids =
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  let registry = Protocol.registry proto in
  let live : Addr.t Ids.Uid_tbl.t = Ids.Uid_tbl.create 256 in
  let edges = ref [] in
  let pending = Queue.create () in
  let add_edge ~src_bunch ~src_uid ~target_uid ~hint =
    edges :=
      {
        e_src_bunch = src_bunch;
        e_src_uid = src_uid;
        e_target_uid = target_uid;
        e_target_owner_hint = hint;
      }
      :: !edges
  in
  let mark addr =
    match Store.resolve store addr with
    | None -> false
    | Some (a, obj) ->
        if
          in_set obj.Heap_obj.bunch
          && not (Ids.Uid_tbl.mem live obj.Heap_obj.uid)
        then begin
          Ids.Uid_tbl.add live obj.Heap_obj.uid a;
          Queue.add (a, obj) pending;
          true
        end
        else false
  in
  List.iter (fun a -> ignore (mark a)) root_addrs;
  (* Roots known only by identity: protect the remote copy through a
     conservative exiting entry if there is no local copy to trace. *)
  List.iter
    (fun uid ->
      match Store.addr_of_uid store uid with
      | Some a -> ignore (mark a)
      | None -> ())
    root_uids;
  while not (Queue.is_empty pending) do
    let a, obj = Queue.take pending in
    ignore a;
    Perfcount.(counters.gc_objects_touched <- counters.gc_objects_touched + 1);
    Heap_obj.iter_pointers obj
      (fun target ->
        match Store.resolve store target with
        | Some (_, tobj) ->
            if in_set tobj.Heap_obj.bunch then begin
              ignore (mark target);
              (* Cross-bunch references between bunches collected together
                 (group mode) keep their SSPs: §7 excludes them from the
                 roots, not from the regenerated stub tables. *)
              if not (Ids.Bunch.equal tobj.Heap_obj.bunch obj.Heap_obj.bunch)
              then
                add_edge ~src_bunch:obj.Heap_obj.bunch ~src_uid:obj.Heap_obj.uid
                  ~target_uid:tobj.Heap_obj.uid ~hint:None
            end
            else
              add_edge ~src_bunch:obj.Heap_obj.bunch ~src_uid:obj.Heap_obj.uid
                ~target_uid:tobj.Heap_obj.uid ~hint:None
        | None -> (
            (* The address does not resolve locally.  Identify the target
               through the address oracle; if we in fact cache it under a
               newer address (a stale pointer arrived after its forwarder
               was retired), trace the local copy; otherwise record a
               conservative edge so the remote copy stays protected (see
               DESIGN.md par. 5). *)
            match Protocol.uid_of_addr proto target with
            | None -> ()
            | Some tuid when Store.addr_of_uid store tuid <> None -> (
                let local = Option.get (Store.addr_of_uid store tuid) in
                bump t "gc.trace.stale_pointer_recoveries";
                ignore (mark local);
                match Store.resolve store local with
                | Some (_, tobj)
                  when (not (in_set tobj.Heap_obj.bunch))
                       || not (Ids.Bunch.equal tobj.Heap_obj.bunch obj.Heap_obj.bunch)
                  ->
                    add_edge ~src_bunch:obj.Heap_obj.bunch
                      ~src_uid:obj.Heap_obj.uid ~target_uid:tuid ~hint:None
                | Some _ | None -> ())
            | Some tuid ->
                let hint =
                  match Registry.bunch_of_addr registry target with
                  | Some tb when in_set tb -> (
                      match Protocol.owner_of proto tuid with
                      | Some owner -> Some (tb, owner)
                      | None -> None)
                  | Some _ | None -> None
                in
                if hint <> None then bump t "gc.trace.remote_intra_refs";
                add_edge ~src_bunch:obj.Heap_obj.bunch ~src_uid:obj.Heap_obj.uid
                  ~target_uid:tuid ~hint))
  done;
  (live, !edges)

(* ------------------------------------------------------------------ *)
(* Root computation (§4.1).                                            *)

(* Both §4.1 root sets in one pass: the full one and the one without
   intra-bunch scions (the §6.2 exiting-ownerPtr trace).  They share
   every component except the intra-scion contribution, so computing
   them together halves the per-collection root work — which is the
   dominant non-trace cost at large heaps. *)
let collect_roots t ~node ~in_set ~group_mode =
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  let registry = Protocol.registry proto in
  let dir = Protocol.directory proto node in
  let root_addrs = ref [] and root_uids = ref Ids.Uid_set.empty in
  let add_addr a = root_addrs := a :: !root_addrs in
  let add_uid u = root_uids := Ids.Uid_set.add u !root_uids in
  (* Mutator stacks. *)
  List.iter
    (fun a ->
      match Registry.bunch_of_addr registry a with
      | Some b when in_set b -> add_addr a
      | Some _ | None -> ())
    (Gc_state.roots t ~node);
  let bunches =
    Ids.Bunch_set.union
      (Ids.Bunch_set.of_list
         (List.filter in_set (Gc_state.bunches_with_tables t ~node)))
      (Ids.Bunch_set.of_list (List.filter in_set (Store.mapped_bunches store)))
    |> Ids.Bunch_set.elements
  in
  (* Inter-bunch scions protecting objects of the collected bunches.  In
     group mode, scions whose stub lives inside the group at this very
     node are internal edges, not roots (§7). *)
  List.iter
    (fun b ->
      List.iter
        (fun (s : Ssp.inter_scion) ->
          let internal =
            group_mode
            && in_set s.Ssp.xs_src_bunch
            && Ids.Node.equal s.Ssp.xs_src_node node
          in
          if not internal then add_uid s.Ssp.xs_target_uid)
        (Gc_state.inter_scions t ~node ~bunch:b))
    bunches;
  (* Intra-bunch scions — excluded from the second, exiting-ownerPtr
     root set of §6.2. *)
  let uids_no_intra = !root_uids in
  List.iter
    (fun b ->
      List.iter
        (fun (s : Ssp.intra_scion) -> add_uid s.Ssp.xn_uid)
        (Gc_state.intra_scions t ~node ~bunch:b))
    bunches;
  (* Entering ownerPtrs: remote replicas still reference these locally
     owned objects. *)
  List.iter
    (fun uid ->
      match Store.addr_of_uid store uid with
      | Some a -> (
          match Registry.bunch_of_addr registry a with
          | Some b when in_set b -> add_addr a
          | Some _ | None -> ())
      | None -> ())
    (Directory.entering_uids dir);
  (* Entering ownerPtrs contribute addresses only, so [uids_no_intra] —
     snapshotted before the intra-scion block — is the complete §6.2
     uid root set. *)
  (!root_addrs, Ids.Uid_set.elements !root_uids, Ids.Uid_set.elements uids_no_intra)

(* ------------------------------------------------------------------ *)
(* The collection itself.                                              *)

(* Per-phase CPU-time accounting (trace / flip / copy / scan /
   cleaner-reconcile): every boundary adds to the matching
   Perfcount.gc_ns_* counter; run emits the totals as per-node
   gc.phase.<name> histograms (µs) and, when the event log is on, as
   Gc_phase trace events (Perfetto slices).  This replaces the old
   BMX_GC_PHASE_TIMING stderr hack — see HACKING.md "GC phase
   profiling" for the e20-diag recipe. *)
type phase = P_trace | P_flip | P_copy | P_scan | P_reconcile

let phase_name = function
  | P_trace -> "trace"
  | P_flip -> "flip"
  | P_copy -> "copy"
  | P_scan -> "scan"
  | P_reconcile -> "cleaner-reconcile"

let charge_phase_ns phase ns =
  Perfcount.(
    match phase with
    | P_trace -> counters.gc_ns_trace <- counters.gc_ns_trace + ns
    | P_flip -> counters.gc_ns_flip <- counters.gc_ns_flip + ns
    | P_copy -> counters.gc_ns_copy <- counters.gc_ns_copy + ns
    | P_scan -> counters.gc_ns_scan <- counters.gc_ns_scan + ns
    | P_reconcile -> counters.gc_ns_reconcile <- counters.gc_ns_reconcile + ns)

let all_phases = [ P_trace; P_flip; P_copy; P_scan; P_reconcile ]

let run ?(economical = false) t ~node ~bunches ~group_mode ?(copy = true) () =
  let pt_last = ref (Sys.time ()) in
  let phase_s = [| 0.; 0.; 0.; 0.; 0. |] in
  let phase_idx = function
    | P_trace -> 0
    | P_flip -> 1
    | P_copy -> 2
    | P_scan -> 3
    | P_reconcile -> 4
  in
  let pt phase =
    let now = Sys.time () in
    let i = phase_idx phase in
    phase_s.(i) <- phase_s.(i) +. (now -. !pt_last);
    pt_last := now
  in
  let proto = Gc_state.proto t in
  let store = Protocol.store proto node in
  let dir = Protocol.directory proto node in
  let set = Ids.Bunch_set.of_list bunches in
  let in_set b = Ids.Bunch_set.mem b set in
  bump t (if group_mode then "gc.ggc.runs" else "gc.bgc.runs");
  let evlog = Protocol.evlog proto in
  if Trace_event.enabled evlog then
    Trace_event.record evlog
      (Trace_event.Gc_begin { node; group = group_mode; bunches });

  (* Roots and the full trace. *)
  let root_addrs, root_uids, root_uids_no_intra =
    collect_roots t ~node ~in_set ~group_mode
  in
  pt P_trace;
  let live, edges = trace t ~node ~in_set ~root_addrs ~root_uids in
  pt P_trace;

  (* Second trace without the intra-bunch scions: objects reachable only
     through an intra-bunch scion must not contribute exiting ownerPtrs,
     or the cross-replica cycle of §6.2 would never be reclaimed. *)
  let live_no_intra, _ =
    trace t ~node ~in_set ~root_addrs ~root_uids:root_uids_no_intra
  in
  pt P_trace;

  (* Economical mode: evacuation exists to reclaim the from-space, so
     when the trace proves there is nothing to reclaim — every local
     cell of the collected bunches is live — relocating the survivors
     would only manufacture forwarders and location-update traffic that
     keeps the whole cluster's dirtiness epochs churning.  Skip the flip
     and leave the spaces alone; the moment garbage appears the next
     collection evacuates as usual. *)
  let local_cells =
    List.fold_left (fun acc b -> acc + Store.bunch_object_count store b) 0 bunches
  in
  let do_copy =
    copy && ((not economical) || local_cells > Ids.Uid_tbl.length live)
  in

  (* Flip: allocation spaces of the collected bunches become from-space.
     The to-space segments are created lazily at the first copy; their
     addresses come fresh from the registry, so concurrent BGCs on other
     replicas can never collide (§4.2).  A non-copying (mark-and-sweep)
     collection leaves the spaces alone. *)
  if do_copy then
    List.iter
      (fun b ->
        List.iter
          (fun seg ->
            match seg.Segment.role with
            | Segment.Active | Segment.To_space -> Segment.set_role seg Segment.From_space
            | Segment.From_space | Segment.Free -> ())
          (Store.segments_of_bunch store b))
      bunches;
  pt P_flip;

  (* Copy phase: evacuate locally-owned live objects; merely note the
     others.  The iteration order is by uid for determinism. *)
  let to_spaces : Segment.t Ids.Bunch_tbl.t = Ids.Bunch_tbl.create 4 in
  let to_space bunch =
    match Ids.Bunch_tbl.find_opt to_spaces bunch with
    | Some seg -> seg
    | None ->
        let seg = Store.fresh_segment store ~bunch () in
        Segment.set_role seg Segment.To_space;
        Ids.Bunch_tbl.add to_spaces bunch seg;
        seg
  in
  let copied = ref 0 and scanned_in_place = ref 0 in
  (* Deterministic copy order without rebuilding sorted lists: dump the
     live index into an array and sort in place by uid. *)
  let live_arr = Array.make (Ids.Uid_tbl.length live) (0, Addr.null) in
  let n_live = ref 0 in
  Ids.Uid_tbl.iter
    (fun uid a ->
      live_arr.(!n_live) <- (uid, a);
      incr n_live)
    live;
  Array.sort (fun (a, _) (b, _) -> Ids.Uid.compare a b) live_arr;
  Array.iter
    (fun (uid, addr) ->
      let obj =
        match Store.resolve store addr with
        | Some (_, o) -> o
        | None -> assert false
      in
      let owned =
        match Directory.find dir uid with
        | Some r -> r.Directory.is_owner
        | None -> false
      in
      let in_from_space =
        match Store.segment_at store addr with
        | Some seg -> seg.Segment.role = Segment.From_space
        | None -> false
      in
      if do_copy && owned && in_from_space then begin
        let bunch = obj.Heap_obj.bunch in
        let seg = to_space bunch in
        let new_addr =
          match Store.alloc_clone store ~seg ~of_:obj with
          | Some a -> a
          | None ->
              (* To-space overflow: grow the bunch with another segment. *)
              let seg' = Store.fresh_segment store ~bunch () in
              Segment.set_role seg' Segment.To_space;
              Ids.Bunch_tbl.replace to_spaces bunch seg';
              (match Store.alloc_clone store ~seg:seg' ~of_:obj with
              | Some a -> a
              | None -> failwith "Collect: object larger than a segment")
        in
        Store.set_forwarder store ~at:addr ~target:new_addr;
        Protocol.register_copy_location proto ~uid ~addr:new_addr;
        Ids.Uid_tbl.replace live uid new_addr;
        incr copied;
        bump t "gc.objects_copied"
      end
      else begin
        incr scanned_in_place;
        if not owned then bump t "gc.objects_scanned_in_place"
      end)
    live_arr;
  pt P_copy;

  (* Reference updating (§4.4): rewrite pointer fields of every live local
     copy through the local forwarder chains — strictly local, no token. *)
  Gc_state.set_roots t ~node
    (List.map (Store.current_addr store) (Gc_state.roots t ~node));
  let ref_updates = ref 0 in
  Ids.Uid_tbl.iter
    (fun _uid addr ->
      match Store.resolve store addr with
      | None -> ()
      | Some (a, obj) ->
          Perfcount.(counters.gc_objects_touched <- counters.gc_objects_touched + 1);
          Heap_obj.iteri_pointers obj (fun i p ->
              let p' = Store.current_addr store p in
              if not (Addr.equal p p') then begin
                Heap_obj.fixup obj i (Value.Ref p');
                Store.note_field_write store ~obj_addr:a ~index:i (Value.Ref p');
                incr ref_updates;
                bump t "gc.ref_updates"
              end))
    live;
  pt P_scan;

  (* Reclamation: local replicas of the collected bunches that the trace
     did not reach are garbage here. *)
  let reclaimed = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun (addr, obj) ->
          let uid = obj.Heap_obj.uid in
          if not (Ids.Uid_tbl.mem live uid) then begin
            Store.remove store addr;
            Protocol.forget_replica proto ~node ~uid;
            incr reclaimed;
            bump t "gc.objects_reclaimed"
          end)
        (Store.objects_of_bunch store b))
    bunches;
  pt P_scan;

  (* Scion roots for objects with no local copy (the reference was
     created here without the target ever being cached): they cannot be
     traced, but the remote copy must stay protected, so they contribute
     conservative exiting ownerPtrs towards the owner. *)
  let phantom_of_uid counter uid =
    match Store.addr_of_uid store uid with
    | Some _ -> None
    | None -> (
        match Protocol.owner_of proto uid with
        | Some owner when not (Ids.Node.equal owner node) ->
            bump t counter;
            Some (uid, owner)
        | Some _ | None -> None)
  in
  let phantom_exiting =
    List.concat_map
      (fun b ->
        List.filter_map
          (fun (s : Ssp.inter_scion) ->
            let internal =
              group_mode
              && in_set s.Ssp.xs_src_bunch
              && Ids.Node.equal s.Ssp.xs_src_node node
            in
            if internal then None
            else
              Option.map
                (fun e -> (b, e))
                (phantom_of_uid "gc.trace.phantom_scion_roots" s.Ssp.xs_target_uid))
          (Gc_state.inter_scions t ~node ~bunch:b))
      bunches
    (* Mutator-stack roots naming objects with no local copy protect the
       remote copy the same way. *)
    @ List.filter_map
        (fun a ->
          match Bmx_memory.Registry.bunch_of_addr (Protocol.registry proto) a with
          | Some b when in_set b -> (
              match Protocol.uid_of_addr proto a with
              | Some uid ->
                  Option.map
                    (fun e -> (b, e))
                    (phantom_of_uid "gc.trace.phantom_mutator_roots" uid)
              | None -> None)
          | Some _ | None -> None)
        (Gc_state.roots t ~node)
  in

  (* Stub-table reconstruction (§4.3) and exiting-ownerPtr lists, then the
     broadcast to the scion cleaners (§6). *)
  let edge_tbl : (Ids.Uid.t * Ids.Uid.t, unit) Hashtbl.t =
    Hashtbl.create (max 16 (2 * List.length edges))
  in
  List.iter
    (fun e -> Hashtbl.replace edge_tbl (e.e_src_uid, e.e_target_uid) ())
    edges;
  let edge_exists src_uid target_uid = Hashtbl.mem edge_tbl (src_uid, target_uid) in
  let new_inter_total = ref 0
  and new_intra_total = ref 0
  and exiting_total = ref 0
  and tables_sent = ref 0 in
  List.iter
    (fun b ->
      let old_inter = Gc_state.inter_stubs t ~node ~bunch:b in
      let old_intra = Gc_state.intra_stubs t ~node ~bunch:b in
      let new_inter =
        List.filter
          (fun (s : Ssp.inter_stub) ->
            Ids.Uid_tbl.mem live s.Ssp.is_src_uid
            && edge_exists s.Ssp.is_src_uid s.Ssp.is_target_uid)
          old_inter
      in
      let new_intra =
        List.filter
          (fun (s : Ssp.intra_stub) ->
            Ids.Uid_tbl.mem live s.Ssp.ns_uid
            &&
            match Directory.find dir s.Ssp.ns_uid with
            | Some r -> r.Directory.is_owner
            | None -> false)
          old_intra
      in
      (* Exiting ownerPtrs: live non-owned local objects of the bunch —
         except those reachable only via an intra-bunch scion (§6.2) —
         plus conservative entries for collected-set objects referenced
         but not cached locally. *)
      let exiting_tbl = Hashtbl.create 16 in
      List.iter
        (fun (_, obj) ->
          let uid = obj.Heap_obj.uid in
          if Ids.Uid_tbl.mem live uid && Ids.Uid_tbl.mem live_no_intra uid then
            match Directory.find dir uid with
            | Some r when not r.Directory.is_owner ->
                Hashtbl.replace exiting_tbl uid r.Directory.prob_owner
            | Some _ | None -> ())
        (Store.objects_of_bunch store b);
      List.iter
        (fun e ->
          match e.e_target_owner_hint with
          | Some (tb, owner)
            when Ids.Bunch.equal tb b
                 && Ids.Uid_tbl.mem live_no_intra e.e_src_uid
                 && not (Ids.Node.equal owner node) ->
              Hashtbl.replace exiting_tbl e.e_target_uid owner
          | Some _ | None -> ())
        edges;
      List.iter
        (fun (pb, (uid, owner)) ->
          if Ids.Bunch.equal pb b then Hashtbl.replace exiting_tbl uid owner)
        phantom_exiting;
      let exiting =
        Hashtbl.fold (fun uid owner acc -> (uid, owner) :: acc) exiting_tbl []
        |> List.sort compare
      in
      Gc_state.replace_stub_tables t ~node ~bunch:b ~inter:new_inter ~intra:new_intra;
      let sent =
        Scion_cleaner.broadcast t ~node ~bunch:b ~old_inter ~old_intra ~exiting
      in
      Gc_state.record_exiting t ~node ~bunch:b exiting;
      new_inter_total := !new_inter_total + List.length new_inter;
      new_intra_total := !new_intra_total + List.length new_intra;
      exiting_total := !exiting_total + List.length exiting;
      tables_sent := !tables_sent + sent)
    bunches;
  pt P_reconcile;

  (* The to-space becomes the new allocation space. *)
  Ids.Bunch_tbl.iter
    (fun bunch seg ->
      Segment.set_role seg Segment.Active;
      Store.set_active_segment store ~bunch seg)
    to_spaces;

  (* Surface the per-phase CPU-time totals of this collection. *)
  List.iter
    (fun phase ->
      let s = phase_s.(phase_idx phase) in
      charge_phase_ns phase (int_of_float (s *. 1e9));
      let us = int_of_float (s *. 1e6) in
      (match Gc_state.metrics t with
      | Some m ->
          Bmx_obs.Metrics.observe m ~node
            ("gc.phase." ^ phase_name phase)
            (float_of_int us)
      | None -> ());
      if Trace_event.enabled evlog then
        Trace_event.record evlog
          (Trace_event.Gc_phase { node; phase = phase_name phase; us }))
    all_phases;
  if Trace_event.enabled evlog then
    Trace_event.record evlog
      (Trace_event.Gc_end
         {
           node;
           group = group_mode;
           live = Ids.Uid_tbl.length live;
           reclaimed = !reclaimed;
         });
  {
    r_node = node;
    r_bunches = bunches;
    r_roots = List.length root_addrs + List.length root_uids;
    r_live = Ids.Uid_tbl.length live;
    r_copied = !copied;
    r_scanned_in_place = !scanned_in_place;
    r_reclaimed = !reclaimed;
    r_ref_updates = !ref_updates;
    r_new_inter_stubs = !new_inter_total;
    r_new_intra_stubs = !new_intra_total;
    r_exiting = !exiting_total;
    r_tables_sent = !tables_sent;
  }
