module idebench/bench

go 1.23

require idebench v0.0.0

replace idebench => ../
