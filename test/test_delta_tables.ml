(* Delta reachability tables (PR 4), checked two ways.

   1. Equivalence of the indexed stub tables and the delta-reassembled
   mirrors with plain list semantics.  A reference model maintains the
   sender's stub tables as naive lists with the documented semantics
   (adds prepend-if-absent, replaces install verbatim).  Random op
   sequences — adds, wholesale replaces, broadcast rounds (some with
   every table message dropped), and crash/restart of either side —
   drive the real implementation, and after every op the indexed
   accessors must agree with the model exactly.  After every cleanly
   delivered round the receiver's mirror (rebuilt from fulls and
   one-round deltas, healed by pull-resyncs after losses and restarts)
   must cover precisely the stubs the model holds, and reassemble
   exactly the model's exiting list.

   2. The delta reconciliation scope against the exhaustive one.  The
   same random table sequence is delivered to one receiver as deltas and
   to an identical twin as fulls, with the same scion messages and
   entering registrations in between.  After every message the scion
   tables must be equal, and the delta receiver's entering set from the
   sender must contain the full receiver's; its only extra entries may
   be ones the delta scope has not yet re-checked because they were
   registered after an earlier send ([registered_after_send] ageing,
   which the periodic full table settles).  This property fails when any
   part of the delta scope is dropped from the cleaner:
   - the inter-scion uncover on deleted inter keys;
   - the intra-scion uncover on deleted intra keys;
   - the entering retirement of deleted exiting claims;
   - the entering claims of added exiting entries;
   - the re-assert of added inter keys. *)

open Bmx_util
module Cluster = Bmx.Cluster
module Net = Bmx_netsim.Net
module Gc_state = Bmx_gc.Gc_state
module Scion_cleaner = Bmx_gc.Scion_cleaner
module Ssp = Bmx_gc.Ssp
module Protocol = Bmx_dsm.Protocol
module Directory = Bmx_dsm.Directory

let sender = 0
let receiver = 1
let pool_size = 6

type op =
  | Add_inter of int  (* pool index *)
  | Add_intra of int
  | Replace of bool array * bool array  (* presence masks over the pools *)
  | Round of bool array * bool  (* exiting mask, drop all table messages? *)
  | Crash_receiver
  | Crash_sender

let pp_mask m =
  String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list m))

let pp_op = function
  | Add_inter i -> Printf.sprintf "Add_inter %d" i
  | Add_intra i -> Printf.sprintf "Add_intra %d" i
  | Replace (a, b) -> Printf.sprintf "Replace (%s, %s)" (pp_mask a) (pp_mask b)
  | Round (m, drop) ->
      Printf.sprintf "Round (%s, drop=%b)" (pp_mask m) drop
  | Crash_receiver -> "Crash_receiver"
  | Crash_sender -> "Crash_sender"

let gen_mask = QCheck.Gen.(array_size (return pool_size) bool)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Add_inter i) (int_bound (pool_size - 1)));
        (3, map (fun i -> Add_intra i) (int_bound (pool_size - 1)));
        (2, map2 (fun a b -> Replace (a, b)) gen_mask gen_mask);
        ( 6,
          map2
            (fun m d -> Round (m, d))
            gen_mask
            (frequency [ (4, return false); (1, return true) ]) );
        (1, return Crash_receiver);
        (1, return Crash_sender);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 8 40) gen_op)

let masked pool mask =
  Array.to_list pool
  |> List.filteri (fun i _ -> mask.(i))

let sorted l = List.sort compare l

(* Aggregated across every generated sequence, so the suite can assert
   the interesting paths (delta sends, loss-triggered resyncs) really
   ran — a property that only ever exercised full tables would pass
   vacuously. *)
let total_deltas = ref 0
let total_fulls = ref 0
let total_resyncs = ref 0

let prop_indexed_tables_match_lists =
  QCheck.Test.make ~name:"indexed tables + delta mirrors = list semantics"
    ~count:150 arb_ops (fun ops ->
      let c = Cluster.create ~nodes:2 () in
      let g = Cluster.gc c in
      let b = Cluster.new_bunch c ~home:sender in
      let tb = Cluster.new_bunch c ~home:sender in
      let fault_rng = Rng.make 7 in
      (* Fixed pools of distinct records; every scion side lives at the
         receiver so it stays in the broadcast destination set whenever
         anything is published. *)
      let inter_pool =
        Array.init pool_size (fun i ->
            {
              Ssp.is_src_bunch = b;
              is_src_uid = 100 + i;
              is_created_at = sender;
              is_target_uid = 200 + i;
              is_target_bunch = tb;
              is_target_addr = Addr.null;
              is_scion_at = receiver;
            })
      in
      let intra_pool =
        Array.init pool_size (fun i ->
            { Ssp.ns_bunch = b; ns_uid = 300 + i; ns_holder = receiver })
      in
      let exiting_pool =
        Array.init pool_size (fun i -> (400 + i, receiver))
      in
      (* The reference model: the sender's tables with list semantics. *)
      let m_inter = ref [] and m_intra = ref [] and m_exiting = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let check_views op =
        let vi = Gc_state.inter_stubs g ~node:sender ~bunch:b in
        if vi <> !m_inter then
          fail "after %s: inter view has %d entries, model %d" (pp_op op)
            (List.length vi) (List.length !m_inter);
        let vn = Gc_state.intra_stubs g ~node:sender ~bunch:b in
        if vn <> !m_intra then
          fail "after %s: intra view has %d entries, model %d" (pp_op op)
            (List.length vn) (List.length !m_intra);
        for i = 0 to pool_size - 1 do
          let uid = 100 + i in
          let got =
            sorted (Gc_state.inter_stubs_with_src g ~node:sender ~bunch:b ~uid)
          in
          let want =
            sorted (List.filter (fun s -> s.Ssp.is_src_uid = uid) !m_inter)
          in
          if got <> want then
            fail "after %s: inter_stubs_with_src %d diverges" (pp_op op) uid;
          let uid = 300 + i in
          let got =
            sorted (Gc_state.intra_stubs_for_uid g ~node:sender ~bunch:b ~uid)
          in
          let want =
            sorted (List.filter (fun s -> s.Ssp.ns_uid = uid) !m_intra)
          in
          if got <> want then
            fail "after %s: intra_stubs_for_uid %d diverges" (pp_op op) uid
        done
      in
      let check_mirror op =
        (* Only meaningful if this round actually addressed the receiver
           (after a sender crash the destination set can be empty until
           tables repopulate). *)
        if List.mem receiver (Gc_state.last_broadcast_dests g ~node:sender ~bunch:b)
        then begin
          Array.iteri
            (fun i stub ->
              let scion =
                {
                  Ssp.xs_src_bunch = b;
                  xs_src_uid = 100 + i;
                  xs_src_node = sender;
                  xs_target_uid = 200 + i;
                  xs_target_bunch = tb;
                }
              in
              let covered =
                Gc_state.mirror_covers_inter g ~node:receiver ~sender ~bunch:b
                  scion
              in
              let want =
                List.exists (fun s -> Ssp.inter_stub_matches s scion) !m_inter
              in
              if covered <> want then
                fail "after %s: mirror inter coverage of uid %d = %b, model %b"
                  (pp_op op) stub.Ssp.is_src_uid covered want)
            inter_pool;
          Array.iteri
            (fun i _ ->
              let scion =
                { Ssp.xn_bunch = b; xn_uid = 300 + i; xn_owner_side = sender }
              in
              let covered =
                Gc_state.mirror_covers_intra g ~node:receiver ~sender ~bunch:b
                  ~holder:receiver scion
              in
              let want =
                List.exists
                  (fun s -> Ssp.intra_stub_matches ~holder:receiver s scion)
                  !m_intra
              in
              if covered <> want then
                fail "after %s: mirror intra coverage of uid %d = %b, model %b"
                  (pp_op op) (300 + i) covered want)
            intra_pool;
          let got =
            sorted (Gc_state.mirror_exiting g ~node:receiver ~sender ~bunch:b)
          in
          if got <> sorted !m_exiting then
            fail "after %s: mirror exiting has %d entries, model %d" (pp_op op)
              (List.length got) (List.length !m_exiting)
        end
      in
      List.iter
        (fun op ->
          (match op with
          | Add_inter i ->
              let s = inter_pool.(i) in
              Gc_state.add_inter_stub g ~node:sender s;
              if not (List.mem s !m_inter) then m_inter := s :: !m_inter
          | Add_intra i ->
              let s = intra_pool.(i) in
              Gc_state.add_intra_stub g ~node:sender s;
              if not (List.mem s !m_intra) then m_intra := s :: !m_intra
          | Replace (mi, mn) ->
              let inter = masked inter_pool mi in
              let intra = masked intra_pool mn in
              Gc_state.replace_stub_tables g ~node:sender ~bunch:b ~inter
                ~intra;
              m_inter := inter;
              m_intra := intra
          | Round (mask, drop) ->
              let exiting = masked exiting_pool mask in
              if drop then
                Net.set_fault (Cluster.net c) ~kind:Net.Stub_table ~drop:1.0
                  ~dup:0.0 ~rng:fault_rng;
              (* The Collect call convention: tables already replaced,
                 broadcast, then record the exiting list for the next
                 round's destination set. *)
              ignore
                (Scion_cleaner.broadcast g ~node:sender ~bunch:b
                   ~old_inter:!m_inter ~old_intra:!m_intra ~exiting);
              Gc_state.record_exiting g ~node:sender ~bunch:b exiting;
              m_exiting := exiting;
              ignore (Cluster.drain c);
              if drop then Net.clear_faults (Cluster.net c)
              else check_mirror op
          | Crash_receiver ->
              Cluster.crash_node c ~node:receiver;
              Cluster.restart_node c ~node:receiver
          | Crash_sender ->
              Cluster.crash_node c ~node:sender;
              Cluster.restart_node c ~node:sender;
              m_inter := [];
              m_intra := [];
              m_exiting := []);
          check_views op)
        ops;
      (* One final clean round: whatever losses or crashes the sequence
         ended on, a single delivered message must restore the mirror to
         the truth (basis mismatches pull a resync synchronously). *)
      let exiting = !m_exiting in
      ignore
        (Scion_cleaner.broadcast g ~node:sender ~bunch:b ~old_inter:!m_inter
           ~old_intra:!m_intra ~exiting);
      Gc_state.record_exiting g ~node:sender ~bunch:b exiting;
      ignore (Cluster.drain c);
      check_mirror (Round (Array.make pool_size false, false));
      let stat name = Stats.get (Cluster.stats c) name in
      total_deltas := !total_deltas + stat "gc.cleaner.delta_sent";
      total_fulls := !total_fulls + stat "gc.cleaner.full_sent";
      total_resyncs := !total_resyncs + stat "gc.cleaner.resyncs";
      if stat "dsm.gc.acquire_read" + stat "dsm.gc.acquire_write" <> 0 then
        fail "table maintenance acquired a DSM token";
      true)

let test_paths_exercised () =
  Alcotest.(check bool)
    "delta messages were sent" true (!total_deltas > 0);
  Alcotest.(check bool) "full tables were sent" true (!total_fulls > 0);
  Alcotest.(check bool)
    "losses triggered mirror resyncs" true (!total_resyncs > 0)

(* ---- delta scope vs full scope (property 2) ---- *)

type rop =
  | Tables of bool array * bool array * bool array  (* inter, intra, exiting *)
  | Scion_msg of int  (* stub i created at the sender, its scion delivered *)
  | Intra_msg of int
  | Register of int  (* entering entry registered after the last send *)
  | Send

let pp_rop = function
  | Tables (a, b, e) ->
      Printf.sprintf "Tables (%s, %s, %s)" (pp_mask a) (pp_mask b) (pp_mask e)
  | Scion_msg i -> Printf.sprintf "Scion_msg %d" i
  | Intra_msg i -> Printf.sprintf "Intra_msg %d" i
  | Register i -> Printf.sprintf "Register %d" i
  | Send -> "Send"

let arb_rops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_rop ops))
    QCheck.Gen.(
      list_size (int_range 6 40)
        (frequency
           [
             ( 3,
               map3 (fun a b e -> Tables (a, b, e)) gen_mask gen_mask gen_mask );
             (2, map (fun i -> Scion_msg i) (int_bound (pool_size - 1)));
             (2, map (fun i -> Intra_msg i) (int_bound (pool_size - 1)));
             (1, map (fun i -> Register i) (int_bound (pool_size - 1)));
             (4, return Send);
           ]))

(* One receiver cluster; both twins are built by the same deterministic
   calls, so their uids coincide.  [es] are objects of the sender's
   bunch [b] owned at the receiver (exiting claims and intra scions name
   them); [ts] are objects of [tb] owned at the receiver (the targets of
   the sender's inter stubs). *)
let make_twin () =
  let c = Cluster.create ~nodes:2 () in
  let b = Cluster.new_bunch c ~home:receiver in
  let tb = Cluster.new_bunch c ~home:receiver in
  let objs bunch =
    Array.init pool_size (fun _ ->
        let a = Cluster.alloc c ~node:receiver ~bunch [| Bmx_memory.Value.Data 0 |] in
        Cluster.uid_at c ~node:receiver a)
  in
  let es = objs b in
  let ts = objs tb in
  ignore (Cluster.drain c);
  (c, b, tb, es, ts)

let prop_delta_scope_matches_full =
  QCheck.Test.make ~name:"delta reconcile scope = full reconcile scope"
    ~count:300 arb_rops (fun ops ->
      let cd, b, tb, es, ts = make_twin () in
      let cf, _, _, _, _ = make_twin () in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let inter_stub i =
        {
          Ssp.is_src_bunch = b;
          is_src_uid = 100 + i;
          is_created_at = sender;
          is_target_uid = ts.(i);
          is_target_bunch = tb;
          is_target_addr = Addr.null;
          is_scion_at = receiver;
        }
      in
      let inter_scion i =
        {
          Ssp.xs_src_bunch = b;
          xs_src_uid = 100 + i;
          xs_src_node = sender;
          xs_target_uid = ts.(i);
          xs_target_bunch = tb;
        }
      in
      let intra_stub i = { Ssp.ns_bunch = b; ns_uid = es.(i); ns_holder = receiver } in
      let intra_scion i = { Ssp.xn_bunch = b; xn_uid = es.(i); xn_owner_side = sender } in
      let exiting i = (es.(i), receiver) in
      (* The sender's current tables and its journal of entries touched
         since the last send (the shape [Gc_state.stub_delta] ships). *)
      let cur = Array.init 3 (fun _ -> Array.make pool_size false) in
      let touched = Array.init 3 (fun _ -> Array.make pool_size false) in
      let set sec i v =
        if cur.(sec).(i) <> v then begin
          cur.(sec).(i) <- v;
          touched.(sec).(i) <- true
        end
      in
      let present sec f =
        List.filter_map
          (fun i -> if cur.(sec).(i) then Some (f i) else None)
          (List.init pool_size Fun.id)
      in
      let split sec f =
        List.partition_map
          (fun i -> if cur.(sec).(i) then Left (f i) else Right (f i))
          (List.filter (fun i -> touched.(sec).(i)) (List.init pool_size Fun.id))
      in
      let seq = ref 0 in
      let registered = ref [] (* (uid, seq) of [Register] entries *) in
      let both f = f cd; f cf in
      let dir c = Protocol.directory (Cluster.proto c) receiver in
      let entering c = Directory.entering_uids_from (dir c) ~from:sender in
      let compare_twins op =
        let gd = Cluster.gc cd and gf = Cluster.gc cf in
        if
          sorted (Gc_state.inter_scions gd ~node:receiver ~bunch:tb)
          <> sorted (Gc_state.inter_scions gf ~node:receiver ~bunch:tb)
        then fail "after %s: inter scion tables differ" (pp_rop op);
        if
          sorted (Gc_state.intra_scions gd ~node:receiver ~bunch:b)
          <> sorted (Gc_state.intra_scions gf ~node:receiver ~bunch:b)
        then fail "after %s: intra scion tables differ" (pp_rop op);
        let ed = entering cd and ef = entering cf in
        List.iter
          (fun uid ->
            if not (List.mem uid ed) then
              fail "after %s: o%d entering from the sender only at the full \
                    receiver"
                (pp_rop op) uid)
          ef;
        List.iter
          (fun uid ->
            if not (List.mem uid ef) then
              let reg =
                Directory.entering_registration_seq (dir cd) ~uid ~from:sender
              in
              if not (List.mem (uid, reg) !registered) then
                fail "after %s: o%d entering only at the delta receiver, \
                      registered at seq %d by a table"
                  (pp_rop op) uid reg)
          ed
      in
      List.iter
        (fun op ->
          match op with
          | Tables (mi, mn, me) ->
              Array.iteri (fun sec m -> Array.iteri (set sec) m) [| mi; mn; me |]
          | Scion_msg i ->
              set 0 i true;
              both (fun c ->
                  Gc_state.add_inter_scion (Cluster.gc c) ~node:receiver
                    (inter_scion i))
          | Intra_msg i ->
              set 1 i true;
              both (fun c ->
                  Gc_state.add_intra_scion (Cluster.gc c) ~node:receiver
                    (intra_scion i))
          | Register i ->
              registered := (es.(i), !seq + 1) :: !registered;
              both (fun c ->
                  Directory.add_entering (dir c) ~seq:(!seq + 1) ~uid:es.(i)
                    ~from:sender)
          | Send ->
              incr seq;
              let full =
                Scion_cleaner.Full
                  {
                    fb_inter = present 0 inter_stub;
                    fb_intra = present 1 intra_stub;
                    fb_exiting = present 2 exiting;
                  }
              in
              let delta =
                if !seq = 1 then full
                else
                  let add_inter, del_inter =
                    split 0 (fun i -> Ssp.inter_stub_key (inter_stub i))
                  in
                  let add_intra, del_intra =
                    split 1 (fun i -> Ssp.intra_stub_key (intra_stub i))
                  in
                  let add_exiting, del_exiting = split 2 exiting in
                  Scion_cleaner.Delta
                    {
                      db_basis = !seq - 1;
                      db_add_inter = add_inter;
                      db_del_inter = del_inter;
                      db_add_intra = add_intra;
                      db_del_intra = del_intra;
                      db_add_exiting = add_exiting;
                      db_del_exiting = del_exiting;
                    }
              in
              Array.iter (fun t -> Array.fill t 0 pool_size false) touched;
              let deliver c body =
                Scion_cleaner.receive (Cluster.gc c) ~at:receiver ~seq:!seq
                  { Scion_cleaner.tm_sender = sender; tm_bunch = b; tm_body = body }
              in
              deliver cd delta;
              deliver cf full;
              compare_twins op)
        ops;
      if Stats.get (Cluster.stats cd) "gc.cleaner.resyncs" <> 0 then
        fail "the delta stream resynchronised: the property compared fulls";
      true)

let pinned_to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260807 |]) t

let () =
  Alcotest.run "delta_tables"
    [
      ( "equivalence",
        [
          pinned_to_alcotest prop_indexed_tables_match_lists;
          pinned_to_alcotest prop_delta_scope_matches_full;
          Alcotest.test_case "delta/full/resync paths exercised" `Quick
            test_paths_exercised;
        ] );
    ]
