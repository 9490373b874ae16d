import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layer_bench_writes_its_keys(tmp_path):
    # tiny sizes: this checks the file's layout, not any timing
    proc = subprocess.run([sys.executable, str(SCRIPT), "--pr", "7", "--out-dir", str(tmp_path),
                           "--points", "1000", "--components", "6", "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert set(doc) == {"pr", "env", "checksum_digits", "layers", "end_to_end"} and doc["pr"] == 7
    assert set(doc["env"]) == {"nproc", "pinned_env", "machine", "python", "numpy", "scipy", "skewtmix"}
    assert set(doc["layers"]) == {"student_t_cdf v=5.3", "student_t_cdf v=100", "mixture_logpdf d1_m4 blocked",
                                  "mixture_logpdf d2_m5 blocked", "mixture_logpdf d3_m3 blocked",
                                  "skewt_logpdf d2_m3[2] blocked",
                                  "sample_mixture d2_m3", "mc_shannon d2_m3 threads=1",
                                  "mc_shannon d2_m3 threads=2", "skewt_shannon cold",
                                  "skewt_renyi cold alpha=2", "skewt_renyi cold alpha=30",
                                  "renyi_bounds d1_m4 alpha=30 cold", "renyi_bounds d1_m4 alpha=30 warm",
                                  "shannon_bounds d1_m4 exact cold", "shannon_bounds d1_m4 exact warm",
                                  "renyi_large_alpha_approx d1_m4 alpha=12 cold",
                                  "renyi_large_alpha_approx d1_m4 alpha=12 warm"}
    cold = {"skewt_shannon cold", "skewt_renyi cold alpha=2", "skewt_renyi cold alpha=30"}
    for name, layer in doc["layers"].items():
        extra = {"t_cdf_points"} if name in cold else set()
        assert set(layer) == {"median_s", "iqr_s", "repeats", "size", "checksum"} | extra
    for name in cold:
        assert doc["layers"][name]["t_cdf_points"] > 0
    assert set(doc["end_to_end"]) == {"import skewtmix.cli", "reproduce --table 1", "reproduce --table 2",
                                      "reproduce --table 3", "bounds d2_m3 --oracle"}
    assert doc["end_to_end"]["bounds d2_m3 --oracle"]["size"] == 3
    for run in doc["end_to_end"].values():
        assert set(run) == {"median_s", "iqr_s", "repeats", "size", "checksum", "exit_code"}
