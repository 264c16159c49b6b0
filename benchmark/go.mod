module numastream/benchmark

go 1.22

require numastream v0.0.0

replace numastream => ../
