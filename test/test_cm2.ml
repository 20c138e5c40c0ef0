(* Unit tests for the CM-2 machine model: configuration, node-grid
   geometry and its hypercube embedding, node memory, the WTL3164
   pipeline semantics, the sequencer scratch memory, and the machine
   container. *)

module Config = Ccc_cm2.Config
module Geometry = Ccc_cm2.Geometry
module Memory = Ccc_cm2.Memory
module Fpu = Ccc_cm2.Fpu
module Sequencer = Ccc_cm2.Sequencer
module Machine = Ccc_cm2.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_default_is_16_nodes () =
  check_int "nodes" 16 (Config.node_count Config.default);
  Alcotest.(check (float 0.0)) "clock" 7.0e6 Config.default.Config.clock_hz;
  check_int "registers" 32 Config.default.Config.fpu_registers

let test_full_machine_is_2048_nodes () =
  check_int "nodes" 2048 (Config.node_count Config.full_machine)

let test_with_nodes_rejects_nonpositive () =
  Alcotest.check_raises "zero rows" (Invalid_argument
    "Config.with_nodes: non-positive node grid") (fun () ->
      ignore (Config.with_nodes ~rows:0 ~cols:4 Config.default))

let test_tuned_runtime_sets_flag () =
  check_bool "off by default" false
    Config.default.Config.strength_reduced_frontend;
  check_bool "on after tuning" true
    (Config.tuned_runtime Config.default).Config.strength_reduced_frontend

let test_wtl3164_latencies () =
  (* Section 4.2: multiply at k feeds the add at k+2; the sum lands at
     k+4.  The configuration must encode exactly that. *)
  check_int "add latency" 2 Config.default.Config.madd_add_latency;
  check_int "writeback latency" 4 Config.default.Config.madd_writeback_latency

(* ------------------------------------------------------------------ *)
(* Geometry *)

let test_coord_roundtrip () =
  let g = Geometry.create ~rows:4 ~cols:4 in
  for node = 0 to 15 do
    let row, col = Geometry.coord_of_node g node in
    check_int "roundtrip" node (Geometry.node_of_coord g ~row ~col)
  done

let test_neighbor_wraparound () =
  let g = Geometry.create ~rows:4 ~cols:4 in
  let node = Geometry.node_of_coord g ~row:0 ~col:0 in
  let north = Geometry.neighbor g node Geometry.North in
  check_int "north wraps to bottom row" (Geometry.node_of_coord g ~row:3 ~col:0)
    north;
  let west = Geometry.neighbor g node Geometry.West in
  check_int "west wraps to last column"
    (Geometry.node_of_coord g ~row:0 ~col:3)
    west

let test_neighbor_inverse () =
  let g = Geometry.create ~rows:4 ~cols:8 in
  List.iter
    (fun dir ->
      for node = 0 to Geometry.node_count g - 1 do
        let back =
          Geometry.neighbor g (Geometry.neighbor g node dir)
            (Geometry.opposite dir)
        in
        check_int "neighbor then opposite returns" node back
      done)
    Geometry.all_directions

let test_diagonal_neighbor () =
  let g = Geometry.create ~rows:4 ~cols:4 in
  let node = Geometry.node_of_coord g ~row:1 ~col:1 in
  let ne = Geometry.diagonal_neighbor g node (Geometry.North, Geometry.East) in
  check_int "north-east" (Geometry.node_of_coord g ~row:0 ~col:2) ne

let test_diagonal_rejects_bad_axes () =
  let g = Geometry.create ~rows:4 ~cols:4 in
  Alcotest.check_raises "two horizontals"
    (Invalid_argument "Geometry.diagonal_neighbor: first direction not vertical")
    (fun () ->
      ignore (Geometry.diagonal_neighbor g 0 (Geometry.East, Geometry.West)))

let test_gray_code_adjacent () =
  (* Consecutive Gray codes differ in exactly one bit, including the
     wraparound pair: that is what embeds a ring in the hypercube. *)
  let popcount n =
    let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
    go 0 n
  in
  let n = 64 in
  for i = 0 to n - 1 do
    let d = Geometry.gray i lxor Geometry.gray ((i + 1) mod n) in
    check_int (Printf.sprintf "gray %d->%d" i (i + 1)) 1 (popcount d)
  done

let test_gray_inverse () =
  for i = 0 to 255 do
    check_int "gray_inverse . gray" i (Geometry.gray_inverse (Geometry.gray i))
  done

let test_hypercube_embedding_16_nodes () =
  let g = Geometry.create ~rows:4 ~cols:4 in
  check_bool "grid neighbors are hypercube neighbors" true
    (Geometry.grid_neighbors_are_hypercube_neighbors g);
  check_int "dimension" 4 (Geometry.hypercube_dimension g)

let test_hypercube_embedding_full_machine () =
  (* 2,048 nodes as 32 x 64: the 11-dimensional hypercube of nodes the
     paper describes in section 3. *)
  let g = Geometry.create ~rows:32 ~cols:64 in
  check_bool "embedding" true (Geometry.grid_neighbors_are_hypercube_neighbors g);
  check_int "dimension" 11 (Geometry.hypercube_dimension g)

let test_hypercube_addresses_distinct () =
  let g = Geometry.create ~rows:8 ~cols:8 in
  let seen = Hashtbl.create 64 in
  for node = 0 to Geometry.node_count g - 1 do
    let addr = Geometry.hypercube_address g node in
    check_bool "address unused" false (Hashtbl.mem seen addr);
    Hashtbl.add seen addr ()
  done

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_read_write () =
  let m = Memory.create ~words:64 in
  Memory.write m 17 3.25;
  Alcotest.(check (float 0.0)) "read back" 3.25 (Memory.read m 17);
  Alcotest.(check (float 0.0)) "fresh is zero" 0.0 (Memory.read m 0)

let test_memory_bounds () =
  let m = Memory.create ~words:8 in
  Alcotest.check_raises "read out of bounds"
    (Invalid_argument "Memory.read: address 8 out of bounds") (fun () ->
      ignore (Memory.read m 8));
  Alcotest.check_raises "negative write"
    (Invalid_argument "Memory.write: address -1 out of bounds") (fun () ->
      Memory.write m (-1) 0.0)

let test_memory_alloc_and_rollback () =
  let m = Memory.create ~words:100 in
  let a = Memory.alloc m ~words:40 in
  let b = Memory.alloc m ~words:40 in
  check_int "a base" 0 a.Memory.base;
  check_int "b base" 40 b.Memory.base;
  check_int "free" 20 (Memory.words_free m);
  Memory.free_all_after m a;
  check_int "rolled back" 60 (Memory.words_free m);
  let c = Memory.alloc m ~words:10 in
  check_int "c reuses b's space" 40 c.Memory.base

let test_memory_exhaustion () =
  let m = Memory.create ~words:16 in
  ignore (Memory.alloc m ~words:10);
  (match Memory.alloc m ~words:10 with
  | _ -> Alcotest.fail "expected allocation failure"
  | exception Failure _ -> ())

let test_memory_blit_roundtrip () =
  let m = Memory.create ~words:32 in
  let r = Memory.alloc m ~words:5 in
  let data = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Memory.blit_in m r data;
  Alcotest.(check (array (float 0.0))) "roundtrip" data (Memory.blit_out m r)

let test_memory_lazy_prefix () =
  (* Capacity is fixed at creation; the host store is only the prefix
     the allocations reach, doubling as it grows, and a word past it
     reads as zero. *)
  let m = Memory.create ~words:1000 in
  check_int "capacity" 1000 (Memory.words m);
  check_int "nothing materialized" 0 (Array.length (Memory.raw m));
  Alcotest.(check (float 0.0)) "unmaterialized reads zero" 0.0
    (Memory.read m 999);
  ignore (Memory.alloc m ~words:10);
  check_int "covers the allocation" 10 (Array.length (Memory.raw m));
  ignore (Memory.alloc m ~words:1);
  check_int "grows by doubling" 20 (Array.length (Memory.raw m));
  Memory.write m 500 2.5;
  check_int "a write past the prefix grows it" 501
    (Array.length (Memory.raw m));
  Memory.reserve m 1000;
  check_int "reserve up to capacity" 1000 (Array.length (Memory.raw m));
  Alcotest.(check (float 0.0)) "contents survive growth" 2.5
    (Memory.read m 500);
  check_int "words_free counts capacity" 989 (Memory.words_free m);
  Alcotest.check_raises "reserve past capacity"
    (Invalid_argument "Memory.reserve: 1001 words outside a 1000-word capacity")
    (fun () -> Memory.reserve m 1001)

(* ------------------------------------------------------------------ *)
(* Fpu: the pipeline semantics the whole compiler relies on. *)

let make_fpu () = Fpu.create ~registers:8 ()

let test_fpu_madd_lands_at_plus_4 () =
  let f = make_fpu () in
  Fpu.poke f 1 10.0;
  (* r2 <- r1 * 2.0 + r0(=0), issued at cycle 0 *)
  Fpu.issue_madd f ~dst:2 ~data:1 ~coeff:2.0 ~acc:0;
  Fpu.advance_to f 3;
  Alcotest.(check (float 0.0)) "not yet at +3" 0.0 (Fpu.read f 2);
  Fpu.advance_to f 4;
  Alcotest.(check (float 0.0)) "landed at +4" 20.0 (Fpu.read f 2)

let test_fpu_data_read_at_issue () =
  (* The data operand is sampled when the multiply issues; a later
     change to the register must not affect the product. *)
  let f = make_fpu () in
  Fpu.poke f 1 3.0;
  Fpu.issue_madd f ~dst:2 ~data:1 ~coeff:5.0 ~acc:0;
  Fpu.poke f 1 999.0;
  Fpu.advance_to f 4;
  Alcotest.(check (float 0.0)) "product uses old value" 15.0 (Fpu.read f 2)

let test_fpu_acc_read_at_plus_2 () =
  (* The accumulator is read when the addition starts (issue + 2), so
     a write landing on that very cycle is visible: this is the
     chained-accumulate spacing rule. *)
  let f = make_fpu () in
  Fpu.poke f 1 1.0;
  Fpu.issue_madd f ~dst:3 ~data:1 ~coeff:7.0 ~acc:0;
  (* lands at 4 *)
  Fpu.advance_to f 2;
  Fpu.issue_madd f ~dst:3 ~data:1 ~coeff:1.0 ~acc:3;
  (* issued at 2, acc read at 4: must see the first result (7). *)
  Fpu.advance_to f 6;
  Alcotest.(check (float 0.0)) "chained" 8.0 (Fpu.read f 3)

let test_fpu_just_in_time_reuse () =
  (* Section 5.3's trick: a register about to be overwritten by an
     accumulation can still serve as a data operand for reads issued
     before the write lands. *)
  let f = make_fpu () in
  Fpu.poke f 4 11.0;
  (* chain writes r4 starting now; lands at 4 *)
  Fpu.issue_madd f ~dst:4 ~data:4 ~coeff:2.0 ~acc:0;
  Fpu.advance_to f 3;
  Alcotest.(check (float 0.0)) "old value at +3" 11.0 (Fpu.read f 4);
  Fpu.issue_madd f ~dst:5 ~data:4 ~coeff:1.0 ~acc:0;
  Fpu.advance_to f 7;
  Alcotest.(check (float 0.0)) "read got old value" 11.0 (Fpu.read f 5);
  Alcotest.(check (float 0.0)) "accumulation landed" 22.0 (Fpu.read f 4)

let test_fpu_pending_write () =
  let f = make_fpu () in
  Fpu.issue_madd f ~dst:2 ~data:1 ~coeff:1.0 ~acc:0;
  Alcotest.(check bool) "pending" true (Fpu.pending_write f ~reg:2);
  Fpu.advance_to f 4;
  Alcotest.(check bool) "landed" false (Fpu.pending_write f ~reg:2)

let test_fpu_drain () =
  let f = make_fpu () in
  Fpu.issue_madd f ~dst:2 ~data:1 ~coeff:1.0 ~acc:0;
  Fpu.drain f;
  Alcotest.(check bool) "nothing pending" false (Fpu.pending_write f ~reg:2);
  check_int "drained to landing" 4 (Fpu.now f)

let test_fpu_flop_slots () =
  let f = make_fpu () in
  Fpu.issue_madd f ~dst:2 ~data:1 ~coeff:1.0 ~acc:0;
  Fpu.advance_to f 2;
  Fpu.issue_madd f ~dst:3 ~data:1 ~coeff:1.0 ~acc:0;
  check_int "two per madd" 4 (Fpu.total_flop_slots f)

let test_fpu_schedule_write_load_path () =
  let f = make_fpu () in
  Fpu.schedule_write f ~at:1 ~reg:6 42.0;
  Alcotest.(check (float 0.0)) "not yet" 0.0 (Fpu.read f 6);
  Fpu.tick f;
  Alcotest.(check (float 0.0)) "landed" 42.0 (Fpu.read f 6)

let test_fpu_register_bounds () =
  let f = make_fpu () in
  Alcotest.check_raises "bad register"
    (Invalid_argument "Fpu: read register 8 out of range") (fun () ->
      ignore (Fpu.read f 8))

let test_fpu_single_precision_rounding () =
  (* The WTL3164 mode: products and sums round to IEEE single
     precision.  0.1 is not representable in either width; the
     single-precision product differs from the double one. *)
  let f =
    Fpu.create ~single_precision:true ~registers:4 ()
  in
  Fpu.poke f 1 0.1;
  Fpu.issue_madd f ~dst:2 ~data:1 ~coeff:0.1 ~acc:0;
  Fpu.advance_to f 4;
  let single = Fpu.read f 2 in
  Alcotest.(check (float 0.0)) "rounded to single" (Fpu.round32 (0.1 *. 0.1))
    single;
  check_bool "differs from double" true (single <> 0.1 *. 0.1)

let test_round32_idempotent () =
  List.iter
    (fun v ->
      Alcotest.(check (float 0.0)) "idempotent" (Fpu.round32 v)
        (Fpu.round32 (Fpu.round32 v)))
    [ 0.0; 1.0; 0.1; -3.25; 1e30; 1e-30; Float.pi ]

(* ------------------------------------------------------------------ *)
(* Router *)

let router_4x4 () = Ccc_cm2.Router.create (Geometry.create ~rows:4 ~cols:4)

let test_router_rejects_non_power_of_two () =
  match Ccc_cm2.Router.create (Geometry.create ~rows:3 ~cols:4) with
  | _ -> Alcotest.fail "3x4 is not addressable"
  | exception Invalid_argument _ -> ()

let test_router_grid_neighbors_one_hop () =
  check_bool "4x4" true
    (Ccc_cm2.Router.news_exchange_is_single_hop (router_4x4 ()));
  check_bool "full machine (32x64)" true
    (Ccc_cm2.Router.news_exchange_is_single_hop
       (Ccc_cm2.Router.create (Geometry.create ~rows:32 ~cols:64)))

let test_router_route_length_is_hamming () =
  let r = router_4x4 () in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      let path = Ccc_cm2.Router.route r ~src ~dst in
      check_int
        (Printf.sprintf "path %d->%d" src dst)
        (Ccc_cm2.Router.hops r ~src ~dst)
        (List.length path);
      (* The path ends at the destination (or is empty for src=dst). *)
      (match List.rev path with
      | last :: _ -> check_int "reaches dst" dst last
      | [] -> check_int "self route" src dst)
    done
  done

let test_router_hops_bounded_by_dimension () =
  let r = router_4x4 () in
  check_int "dimension" 4 (Ccc_cm2.Router.dimension r);
  for src = 0 to 15 do
    for dst = 0 to 15 do
      check_bool "within dimension" true
        (Ccc_cm2.Router.hops r ~src ~dst <= 4)
    done
  done

let test_router_news_wire_disjoint () =
  let r = router_4x4 () in
  List.iter
    (fun dir ->
      check_bool "no wire shared" true
        (Ccc_cm2.Router.news_exchange_wire_disjoint r dir))
    Geometry.all_directions

(* ------------------------------------------------------------------ *)
(* Slicewise storage formats *)

let sample_values =
  Array.init Ccc_cm2.Slicewise.processors (fun p ->
      Fpu.round32 (sin (float_of_int p) *. 10.0))

let test_processorwise_roundtrip () =
  let slices = Ccc_cm2.Slicewise.processorwise_store sample_values in
  check_int "32 slices" 32 (Array.length slices);
  Alcotest.(check (array (float 0.0)))
    "roundtrip" sample_values
    (Ccc_cm2.Slicewise.processorwise_load slices)

let test_slicewise_roundtrip () =
  Array.iter
    (fun v ->
      Alcotest.(check (float 0.0)) "roundtrip" v
        (Ccc_cm2.Slicewise.slicewise_load (Ccc_cm2.Slicewise.slicewise_store v)))
    sample_values

let test_transpose_converts_formats () =
  (* The interface chip's job in the fieldwise world: transposing the
     processorwise slices of 32 words yields the 32 slicewise words. *)
  let processorwise = Ccc_cm2.Slicewise.processorwise_store sample_values in
  let transposed = Ccc_cm2.Slicewise.transpose processorwise in
  Array.iteri
    (fun p v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "word %d" p)
        v
        (Ccc_cm2.Slicewise.slicewise_load transposed.(p)))
    sample_values

let test_transpose_involution () =
  let slices = Ccc_cm2.Slicewise.processorwise_store sample_values in
  Alcotest.(check (array int32))
    "transpose twice is identity" slices
    (Ccc_cm2.Slicewise.transpose (Ccc_cm2.Slicewise.transpose slices))

let test_format_cycle_costs () =
  (* The section-3 argument: slicewise feeds the FPU one word per
     cycle; processorwise needs 32. *)
  check_int "slicewise" 1 Ccc_cm2.Slicewise.slicewise_word_cycles;
  check_int "processorwise" 32 Ccc_cm2.Slicewise.processorwise_word_cycles

(* ------------------------------------------------------------------ *)
(* Sequencer *)

let test_sequencer_stream () =
  let s = Sequencer.create ~capacity:8 in
  Sequencer.load s [| "a"; "b"; "c" |];
  Alcotest.(check string) "first" "a" (Sequencer.next s);
  Alcotest.(check string) "second" "b" (Sequencer.next s);
  Sequencer.reset_counter s 0;
  Alcotest.(check string) "after reset" "a" (Sequencer.next s)

let test_sequencer_capacity () =
  let s = Sequencer.create ~capacity:2 in
  match Sequencer.load s [| 1; 2; 3 |] with
  | () -> Alcotest.fail "expected capacity failure"
  | exception Failure _ -> ()

let test_sequencer_runs_off_end () =
  let s = Sequencer.create ~capacity:4 in
  Sequencer.load s [| 1 |];
  ignore (Sequencer.next s);
  Alcotest.check_raises "off the end"
    (Invalid_argument "Sequencer.next: ran off the end of the loaded table")
    (fun () -> ignore (Sequencer.next s))

(* ------------------------------------------------------------------ *)
(* Machine *)

let test_machine_alloc_all_uniform () =
  let m = Machine.create ~memory_words:1024 Tutil.config_2x2 in
  let r1 = Machine.alloc_all m ~words:100 in
  let r2 = Machine.alloc_all m ~words:50 in
  check_int "r1 base" 0 r1.Memory.base;
  check_int "r2 base" 100 r2.Memory.base;
  Machine.free_all_after m r1;
  let r3 = Machine.alloc_all m ~words:10 in
  check_int "r3 reuses r2's space" 100 r3.Memory.base

let test_machine_node_memories_independent () =
  let m = Machine.create ~memory_words:64 Tutil.config_2x2 in
  let r = Machine.alloc_all m ~words:4 in
  Memory.write (Machine.memory m 0) r.Memory.base 1.0;
  Alcotest.(check (float 0.0)) "node 1 unaffected" 0.0
    (Memory.read (Machine.memory m 1) r.Memory.base)

let test_machine_fresh_materializes_nothing () =
  let m = Machine.create Config.default in
  Machine.iter_nodes m (fun node mem ->
      check_int (Printf.sprintf "node %d capacity" node) (1 lsl 20)
        (Memory.words mem);
      check_int
        (Printf.sprintf "node %d materialized words" node)
        0
        (Array.length (Memory.raw mem)))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cm2"
    [
      ( "config",
        [
          tc "default is the 16-node test machine" test_default_is_16_nodes;
          tc "full machine has 2048 nodes" test_full_machine_is_2048_nodes;
          tc "with_nodes validates" test_with_nodes_rejects_nonpositive;
          tc "tuned_runtime sets strength reduction" test_tuned_runtime_sets_flag;
          tc "WTL3164 latencies" test_wtl3164_latencies;
        ] );
      ( "geometry",
        [
          tc "coord roundtrip" test_coord_roundtrip;
          tc "neighbors wrap around" test_neighbor_wraparound;
          tc "neighbor inverse" test_neighbor_inverse;
          tc "diagonal neighbor" test_diagonal_neighbor;
          tc "diagonal axis validation" test_diagonal_rejects_bad_axes;
          tc "gray code adjacency" test_gray_code_adjacent;
          tc "gray inverse" test_gray_inverse;
          tc "16-node embedding" test_hypercube_embedding_16_nodes;
          tc "2048-node embedding" test_hypercube_embedding_full_machine;
          tc "hypercube addresses distinct" test_hypercube_addresses_distinct;
        ] );
      ( "memory",
        [
          tc "read/write" test_memory_read_write;
          tc "bounds" test_memory_bounds;
          tc "alloc and rollback" test_memory_alloc_and_rollback;
          tc "exhaustion" test_memory_exhaustion;
          tc "blit roundtrip" test_memory_blit_roundtrip;
          tc "lazy prefix" test_memory_lazy_prefix;
        ] );
      ( "fpu",
        [
          tc "madd lands at +4" test_fpu_madd_lands_at_plus_4;
          tc "data operand read at issue" test_fpu_data_read_at_issue;
          tc "accumulator read at +2" test_fpu_acc_read_at_plus_2;
          tc "just-in-time register reuse" test_fpu_just_in_time_reuse;
          tc "pending write tracking" test_fpu_pending_write;
          tc "drain" test_fpu_drain;
          tc "flop slot accounting" test_fpu_flop_slots;
          tc "load path write scheduling" test_fpu_schedule_write_load_path;
          tc "register bounds" test_fpu_register_bounds;
          tc "single-precision rounding" test_fpu_single_precision_rounding;
          tc "round32 idempotent" test_round32_idempotent;
        ] );
      ( "router",
        [
          tc "rejects non-power-of-two grids" test_router_rejects_non_power_of_two;
          tc "grid neighbors are one hop" test_router_grid_neighbors_one_hop;
          tc "path length = hamming distance" test_router_route_length_is_hamming;
          tc "hops bounded by dimension" test_router_hops_bounded_by_dimension;
          tc "NEWS exchange is wire-disjoint" test_router_news_wire_disjoint;
        ] );
      ( "slicewise",
        [
          tc "processorwise roundtrip" test_processorwise_roundtrip;
          tc "slicewise roundtrip" test_slicewise_roundtrip;
          tc "transpose converts formats" test_transpose_converts_formats;
          tc "transpose is an involution" test_transpose_involution;
          tc "format cycle costs" test_format_cycle_costs;
        ] );
      ( "sequencer",
        [
          tc "streams dynamic parts" test_sequencer_stream;
          tc "capacity enforced" test_sequencer_capacity;
          tc "running off the end" test_sequencer_runs_off_end;
        ] );
      ( "machine",
        [
          tc "uniform SIMD allocation" test_machine_alloc_all_uniform;
          tc "node memories independent" test_machine_node_memories_independent;
          tc "fresh machine materializes nothing"
            test_machine_fresh_materializes_nothing;
        ] );
    ]
