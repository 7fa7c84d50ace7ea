// The benchmark is a module of its own, so building it needs no file
// outside this directory to change; the library is the checkout around it.
module repro/bench

go 1.21

require repro v0.0.0

replace repro => ../
