"""szwalk: compile structured Markov chains into verified Szegedy walk circuits.

The toolkit covers the pipeline end to end: transition-matrix constructors
(``markov``), a small gate IR (``gates``), a dense statevector simulator
(``simulator``), the exact walk-operator oracle (``oracle``), the circuit
synthesizers with oracle verification (``synth``), the quantum PageRank
driver (``pagerank``) and a CLI (``cli``).
"""

from . import cli, gates, markov, oracle, pagerank, simulator, synth
from .gates import (Circuit, Gate, compose, dagger, from_text, gate_count,
                    on_qubits, to_openqasm, to_text, with_controls)
from .markov import (circulant, complete_bipartite, complete_graph,
                     crown_graph, cycle_graph, directed_example8, from_spec,
                     google_matrix, tensor, validate, wheel_graph, win_cycles)
from .oracle import WalkOracle, column_state, initial_superposition, walk_operator
from .pagerank import PagerankSeries, compare_hub, export, run
from .simulator import apply, unitary_of
from .synth import (Decomposition, controlled_shift_transform,
                    kb_complete, kb_cycle, shift_circuit, state_prep,
                    synth_bipartite, synth_circulant, synth_complete,
                    synth_crown, synth_cycle, synth_directed8, synth_k2,
                    synth_partitioned, synth_single_reference, synth_tensor,
                    synth_wheel, synth_win_cycles, verify)

__version__ = "0.1.0"
