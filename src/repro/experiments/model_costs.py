"""Extension table: inference cost of our models on both accelerators.

Not a paper artifact, but the question the co-design enables a user to
answer: for each trained model, how many MACs does one inference take
(measured by running it under the MAC profiler), and what latency/energy
would the 8-bit INT vs HFINT PE arrays spend on it?  The HFINT energy
advantage from Fig. 7 carries over one-for-one since the arrays sustain
identical throughput.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis import format_table, save_result
from ..hardware import count_macs, estimate_inference_cost
from .common import MODEL_NAMES, trained_model

__all__ = ["run", "render"]


def _one_inference(name: str, model, task) -> int:
    if name == "transformer":
        batch = task.eval_set(1)
        with count_macs() as counter:
            model.greedy_decode(batch.src, max_len=16)
    elif name == "seq2seq":
        batch = task.eval_set(1)
        with count_macs() as counter:
            model.greedy_decode(batch.frames)
    else:
        batch = task.eval_set(1)
        with count_macs() as counter:
            model.predict(batch.images[:1])
    return counter.total


def run(profile: str = "full",
        models: Sequence[str] = MODEL_NAMES) -> Dict:
    rows = []
    for name in models:
        model, task, _ = trained_model(name, profile)
        model.eval()
        macs = _one_inference(name, model, task)
        int_cost = estimate_inference_cost(macs, "int", bits=8)
        hf_cost = estimate_inference_cost(macs, "hfint", bits=8)
        rows.append({
            "model": name, "macs": macs,
            "latency_us": hf_cost.latency_us,
            "int_energy_uj": int_cost.energy_uj,
            "hfint_energy_uj": hf_cost.energy_uj,
            "energy_ratio": hf_cost.energy_uj / int_cost.energy_uj,
        })
    result = {"rows": rows}
    save_result(f"model_costs_{profile}", result)
    return result


def render(result: Dict) -> str:
    rows = [[r["model"], r["macs"], r["latency_us"],
             r["int_energy_uj"], r["hfint_energy_uj"], r["energy_ratio"]]
            for r in result["rows"]]
    return format_table(
        ["model", "MACs/inference", "latency us", "INT8 uJ", "HFINT8 uJ",
         "HFINT/INT"],
        rows, title=("Extension - one-inference cost on the 4-PE arrays "
                     "(K=16, 8-bit)"), digits=3)
