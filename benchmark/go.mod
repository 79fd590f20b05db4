module hgs/benchmark

go 1.23

require hgs v0.0.0

replace hgs => ../
