(* Flight-recorder report: one structured provenance record per compile.

   Everything here is a pure function of the [Compile.compiled] value —
   the assembler reads no global state, so serial and parallel compiles
   of the same program yield byte-identical reports (wall-clock timings
   are opt-in and excluded from the default serialization). *)

module J = Obs.Report

type t = { program : string option; compiled : Compile.compiled }

let assemble ?program compiled = { program; compiled }

(* Canonical digest of the schedule decision: the committed search
   signature plus the schedule assignment and buffer sizing it produced.
   Deliberately independent of any rendered artifact (the CUDA header
   embeds this digest, so hashing the CUDA text would be circular). *)
let schedule_signature (c : Compile.compiled) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Ii_search.log_signature c.Compile.search_stats);
  let s = c.Compile.schedule in
  Buffer.add_string b (Printf.sprintf "ii=%d sms=%d\n" s.Swp_schedule.ii s.Swp_schedule.num_sms);
  List.iter
    (fun (e : Swp_schedule.entry) ->
      Buffer.add_string b
        (Printf.sprintf "v=%d k=%d sm=%d o=%d f=%d\n"
           e.Swp_schedule.inst.Instances.node e.Swp_schedule.inst.Instances.k
           e.Swp_schedule.sm e.Swp_schedule.o e.Swp_schedule.f))
    s.Swp_schedule.entries;
  List.iter
    (fun ((e : Streamit.Graph.edge), bytes) ->
      Buffer.add_string b
        (Printf.sprintf "buf %d->%d %d\n" e.Streamit.Graph.src
           e.Streamit.Graph.dst bytes))
    c.Compile.sizing.Buffer_layout.per_edge;
  Digest.to_hex (Digest.string (Buffer.contents b))

let scheme_name = function
  | Compile.Swp_coalesced -> "SWP"
  | Compile.Swp_non_coalesced -> "SWPNC"

let bounds_doc (b : Mii.bounds) =
  J.Obj
    [
      ("res_mii", J.Int b.Mii.res_classic);
      ("res_mii_sharp", J.Int b.Mii.res_sharp);
      ("rec_mii", J.Int b.Mii.recurrence);
      ("no_wrap", J.Int b.Mii.no_wrap);
      ("combinatorial", J.Int b.Mii.combinatorial);
      ("final", J.Int b.Mii.final);
      ("binding", J.Str b.Mii.binding);
    ]

let attempt_doc ~timings (a : Ii_search.attempt) =
  J.Obj
    ([
       ("ii", J.Int a.Ii_search.ii);
       ("arm", J.Str a.Ii_search.arm);
       ("tried_exact", J.Bool a.Ii_search.tried_exact);
       ("feasible", J.Bool a.Ii_search.feasible);
       ("lp_pivots", J.Int a.Ii_search.lp_pivots);
       ("bb_nodes", J.Int a.Ii_search.bb_nodes);
       ("work_units", J.Int a.Ii_search.work_units);
       ("budget_hit", J.Bool a.Ii_search.budget_hit);
     ]
    @
    if timings then [ ("solve_time_s", J.Float a.Ii_search.solve_time_s) ]
    else [])

let stage_doc ~timings (s : Compile.stage_spend) =
  J.Obj
    ([ ("stage", J.Str s.Compile.stage); ("work", J.Int s.Compile.work) ]
    @ if timings then [ ("wall_s", J.Float s.Compile.wall_s) ] else [])

let cand_doc (c : Select.cand) =
  J.Obj
    [
      ("regs", J.Int c.Select.cand_regs);
      ("block_threads", J.Int c.Select.cand_threads);
      ( "norm_ii",
        match c.Select.cand_norm with
        | Some v -> J.Float v
        | None -> J.Null );
    ]

let to_doc ?(timings = false) t =
  let c = t.compiled in
  let st = c.Compile.search_stats in
  let prov = c.Compile.prov in
  let cfg = c.Compile.config in
  J.Obj
    ([
       ( "program",
         match t.program with Some p -> J.Str p | None -> J.Null );
       ("arch", J.Str c.Compile.arch.Gpusim.Arch.name);
       ("scheme", J.Str (scheme_name c.Compile.scheme));
       ("num_sms", J.Int c.Compile.schedule.Swp_schedule.num_sms);
       ("quality", J.Str (Compile.quality_name c.Compile.quality));
       ("rationale", J.Str (Compile.rationale_name prov.Compile.rationale));
       ( "fallback_seed_ii",
         match prov.Compile.fallback_seed_ii with
         | Some i -> J.Int i
         | None -> J.Null );
       ( "ii",
         J.Obj
           [
             ("achieved", J.Int st.Ii_search.achieved_ii);
             ("lower_bound", J.Int st.Ii_search.lower_bound);
             ( "gap",
               J.Int (st.Ii_search.achieved_ii - st.Ii_search.lower_bound) );
             ("relaxation", J.Float st.Ii_search.relaxation);
             ("bounds", bounds_doc st.Ii_search.bounds);
           ] );
       ( "search",
         J.Obj
           [
             ("attempts", J.Int st.Ii_search.attempts);
             ("used_exact", J.Bool st.Ii_search.used_exact);
             ("refined", J.Bool st.Ii_search.refined);
             ( "attempt_log",
               J.Arr
                 (List.map (attempt_doc ~timings) st.Ii_search.attempt_log) );
           ] );
       ( "stages",
         J.Arr (List.map (stage_doc ~timings) prov.Compile.stage_spends) );
       ("ledger_total", J.Int prov.Compile.ledger_total);
       ( "selection",
         J.Obj
           [
             ("regs", J.Int cfg.Select.regs);
             ("block_threads", J.Int cfg.Select.block_threads);
             ("scale", J.Int cfg.Select.scale);
             ("norm_ii", J.Float cfg.Select.norm_ii);
             ("scoreboard", J.Arr (List.map cand_doc cfg.Select.scoreboard));
           ] );
       ( "schedule",
         J.Obj
           [
             ("stages", J.Int (Swp_schedule.stages c.Compile.schedule));
             ("coarsening", J.Int c.Compile.coarsening);
             ( "buffer_bytes",
               J.Int c.Compile.sizing.Buffer_layout.total_bytes );
           ] );
       ("signature", J.Str (schedule_signature c));
     ]
    @
    if timings then [ ("total_wall_s", J.Float prov.Compile.total_wall_s) ]
    else [])

let to_json ?timings t = J.to_string (to_doc ?timings t)
let to_json_indent ?timings t = J.to_string_indent (to_doc ?timings t)

let pp_human fmt t =
  let c = t.compiled in
  let st = c.Compile.search_stats in
  let b = st.Ii_search.bounds in
  let prov = c.Compile.prov in
  let cfg = c.Compile.config in
  let name = match t.program with Some p -> p | None -> "<program>" in
  Format.fprintf fmt "@[<v>compile report: %s (%s, %s, %d SMs)@," name
    (scheme_name c.Compile.scheme)
    c.Compile.arch.Gpusim.Arch.name
    c.Compile.schedule.Swp_schedule.num_sms;
  Format.fprintf fmt "  quality: %s — %a@,"
    (Compile.quality_name c.Compile.quality)
    Compile.pp_rationale prov.Compile.rationale;
  (match prov.Compile.fallback_seed_ii with
  | Some i -> Format.fprintf fmt "  fallback seeded at II=%d@," i
  | None -> ());
  Format.fprintf fmt
    "  II: achieved %d, lower bound %d (binding: %s), gap %d (%.1f%%)@,"
    st.Ii_search.achieved_ii st.Ii_search.lower_bound b.Mii.binding
    (st.Ii_search.achieved_ii - st.Ii_search.lower_bound)
    (100.0 *. st.Ii_search.relaxation);
  Format.fprintf fmt
    "    bounds: res_mii=%d sharp=%d rec_mii=%d no_wrap=%d@,"
    b.Mii.res_classic b.Mii.res_sharp b.Mii.recurrence b.Mii.no_wrap;
  Format.fprintf fmt "  search: %d committed attempts%s%s@,"
    st.Ii_search.attempts
    (if st.Ii_search.used_exact then ", exact" else "")
    (if st.Ii_search.refined then ", LNS-refined" else "");
  List.iter
    (fun a -> Format.fprintf fmt "    %a@," Ii_search.pp_attempt a)
    st.Ii_search.attempt_log;
  Format.fprintf fmt "  stages (work units):@,";
  List.iter
    (fun (s : Compile.stage_spend) ->
      Format.fprintf fmt "    %-8s %8d@," s.Compile.stage s.Compile.work)
    prov.Compile.stage_spends;
  Format.fprintf fmt "    %-8s %8d@," "total" prov.Compile.ledger_total;
  let feas =
    List.length
      (List.filter
         (fun (x : Select.cand) -> x.Select.cand_norm <> None)
         cfg.Select.scoreboard)
  in
  Format.fprintf fmt
    "  selection: regs=%d block_threads=%d scale=%d norm_ii=%.4f (%d/%d \
     candidates feasible)@,"
    cfg.Select.regs cfg.Select.block_threads cfg.Select.scale
    cfg.Select.norm_ii feas
    (List.length cfg.Select.scoreboard);
  Format.fprintf fmt
    "  schedule: %d pipeline stages, %d buffer bytes, coarsening %d@,"
    (Swp_schedule.stages c.Compile.schedule)
    c.Compile.sizing.Buffer_layout.total_bytes c.Compile.coarsening;
  Format.fprintf fmt "  signature: %s@]" (schedule_signature c)
