module shastamon/bench

go 1.22

require shastamon v0.0.0

replace shastamon => ../
