// The benchmark is a module of its own so that it builds from its own
// build file; it reaches the code under test through the replace line.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
