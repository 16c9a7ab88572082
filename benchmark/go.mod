module incgraph/benchmark

go 1.22

require incgraph v0.0.0

replace incgraph => ../
