module ringcast/bench

go 1.22

require ringcast v0.0.0

replace ringcast => ../
