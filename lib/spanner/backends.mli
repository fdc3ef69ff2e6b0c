(** The stock backends, adapted to {!Backend.S} and registered.

    Registration is a side effect of this module's initialization.
    OCaml links a library module only when something references it, so
    executables must call {!ensure} (a no-op whose call forces the
    initializer) before consulting the registry.

    Registered names, with provenance:
    - ["relaxed"] — the paper's relaxed greedy (1+ε)-spanner
      (Sections 2–3), grid-region phases under Euclidean weights and
      whole-graph phases under the energy metric, the only backend
      with an incremental repair path;
    - ["seq-greedy"] — classical greedy spanner (Althöfer et al.), the
      paper's quality reference (Section 1.4);
    - ["dp-quasi"] — Damian–Pemmaraju localized quasi-UDG
      (1+ε)-spanner (arXiv 0806.4221) on the simulator runtime
      ({!Distrib.Dp_spanner});
    - ["ft-greedy"] — k-edge-fault-tolerant greedy
      ({!Topo.Fault_tolerant}, Section 1.6.1 extension), registered
      with [k = 1]; other [k] via {!ft_greedy};
    - ["lmst"] — Local MST (Li–Hou–Sha), symmetric variant;
    - ["xtc"] — XTC (Wattenhofer–Zollinger, paper reference [19]);
    - ["yao"], ["theta"] — cone graphs at 8 cones (paper
      reference [20]);
    - ["wspd"] — Callahan–Kosaraju WSPD t-spanner of the {e complete}
      Euclidean graph (the one backend whose output is not a subgraph
      of the input α-UBG — [capabilities.subgraph = false]). *)

(** [ensure ()] forces registration; safe to call repeatedly. *)
val ensure : unit -> unit

(** [ft_greedy ~k] is the k-edge-fault-tolerant greedy backend for a
    chosen [k >= 0] (named ["ft-greedy"]; register it to swap the
    stock [k = 1] entry). *)
val ft_greedy : k:int -> Backend.t
