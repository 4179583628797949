"""
Werner-state schedules and yield accounting
===========================================

Iterates alternating [P1, P2] rounds on a three-qubit Werner-type input
until the fidelity crosses 0.99, compares step orderings, and shows the
yield doubling of the theta = pi discrimination mode.

Run:  python demos/werner_schedules.py
"""
from ghzpurify.ghz import build_werner, ensemble_fidelity
from ghzpurify.optics import DiscriminationMode
from ghzpurify.purify import StepKind
from ghzpurify.schedule import Schedule, run_schedule, sweep

EVEN_ONLY = DiscriminationMode.even_only()
P1, P2 = StepKind.P1, StepKind.P2

initial = build_werner(0.8, 3)
print(f"Werner x=0.8, N=3: initial fidelity {ensemble_fidelity(initial):.4f}")
print()

sched = Schedule((P1, P2), EVEN_ONLY, stop_threshold=0.99)
trace = run_schedule(initial, sched)
print("round  step  fidelity   keep      cumulative yield")
for rec in trace.rounds:
    print(f"{rec.round_index:5d}  {rec.step:>4}  {rec.fidelity:.6f}  "
          f"{rec.keep_probability:.6f}  {rec.cumulative_yield:.3e}")
print(f"converged: {trace.converged} after {trace.n_rounds} rounds")
print()

# P1 alone cannot treat the phase errors of the Werner mixture: the sign
# populations are driven to 50/50 and the fidelity stalls.
p1_only = run_schedule(initial, Schedule((P1,), EVEN_ONLY, stop_threshold=0.99))
print(f"[P1] only: fidelity stalls at {p1_only.final_fidelity:.4f} "
      f"(converged={p1_only.converged})")
print()

for steps in ((P1, P2), (P2, P1)):
    order = run_schedule(initial, Schedule(steps, EVEN_ONLY, stop_threshold=0.99))
    print(f"[{','.join(s.value for s in steps)}]: rounds={order.n_rounds} "
          f"yield={order.cumulative_yield:.3e}")
print()

# EvenPlusOdd keeps the all-odd parity branch too, doubling the yield of
# each step without changing the output ensemble (for P1 always, for P2
# when the qubit count is even; at odd N its P2 odd branch pairs opposite
# signs and stalls, so we show the doubling on four qubits).
four = build_werner(0.8, 4)
eo4 = run_schedule(four, Schedule((P1, P2), EVEN_ONLY, stop_threshold=0.99))
epo4 = run_schedule(four, Schedule((P1, P2), DiscriminationMode.even_plus_odd(),
                                   stop_threshold=0.99))
print(f"N=4 EvenOnly:     {eo4.n_rounds} rounds, yield {eo4.cumulative_yield:.3e}")
print(f"N=4 EvenPlusOdd:  {epo4.n_rounds} rounds, yield {epo4.cumulative_yield:.3e} "
      f"(2^{epo4.n_rounds} times higher)")
print()

rows = sweep("x", [0.6, 0.7, 0.8, 0.9], 3, sched)
print("x     initial F  rounds  final F   yield")
for row in rows:
    print(f"{row.value:.2f}  {row.initial_fidelity:.4f}     {row.rounds:2d}     "
          f"{row.final_fidelity:.4f}  {row.cumulative_yield:.3e}")
