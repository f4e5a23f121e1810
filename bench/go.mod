module sdb/bench

go 1.22

require sdb v0.0.0

replace sdb => ../
