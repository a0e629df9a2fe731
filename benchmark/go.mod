module oblidb/benchmark

go 1.22

require oblidb v0.0.0

replace oblidb => ../
