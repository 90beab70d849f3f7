"""End-to-end benchmark: real ``m3d-serve``/``m3d-route`` processes and ``train()``.

``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics; see ``e2ebench/README.md``.
"""
