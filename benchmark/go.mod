module twobssd/benchmark

go 1.22

require twobssd v0.0.0

replace twobssd => ../
