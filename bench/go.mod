module edgeinfer/bench

go 1.22

require edgeinfer v0.0.0

replace edgeinfer => ../
